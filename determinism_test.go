package syncron_test

import (
	"encoding/json"
	"testing"

	"syncron"
	"syncron/internal/program"
)

// executeJSON runs spec and returns its result's JSON encoding.
func executeJSON(t *testing.T, spec syncron.RunSpec) []byte {
	t.Helper()
	res := syncron.Execute(spec)
	if res.Err != "" {
		t.Fatalf("%s: %s", spec.Workload, res.Err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOverflowExitIsDeterministic runs structures whose small
// Synchronization Table overflows on topologies with shared links. When a
// variable's master frees it, it sends one decrease_indexing_counter message
// to every overflowed SE; those transfers contend for links, so their order
// must not depend on map iteration.
func TestOverflowExitIsDeterministic(t *testing.T) {
	for _, w := range []string{"hashtable", "skiplist"} {
		for _, topo := range []syncron.Topology{syncron.TopoMesh2D, syncron.TopoRing, syncron.TopoStar} {
			spec := syncron.RunSpec{Workload: w,
				Config: syncron.Config{Scheme: syncron.SchemeSynCron, STEntries: 4, Topology: topo, Seed: 7},
				Params: syncron.WorkloadParams{Scale: 0.1}}
			want := executeJSON(t, spec)
			for run := 1; run < 5; run++ {
				if got := executeJSON(t, spec); string(got) != string(want) {
					t.Fatalf("%s on %s: run %d differs from run 0:\n%s\n%s", w, topo, run, got, want)
				}
			}
		}
	}
}

// TestBatchedWorkloadsMatchUnbatched checks every workload whose programs
// use program.Ctx batches: with batching switched off, each operation is its
// own handoff, and the results must be the same bytes. A batch that read
// host state other cores write would see it at a different simulated time
// and change them.
func TestBatchedWorkloadsMatchUnbatched(t *testing.T) {
	var specs []syncron.RunSpec
	for _, w := range []string{"lock", "barrier", "semaphore", "condvar"} {
		for _, s := range []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeCentral} {
			specs = append(specs, syncron.RunSpec{Workload: w, Config: syncron.Config{Scheme: s, Seed: 3},
				Params: syncron.WorkloadParams{Rounds: 12}})
		}
	}
	for _, w := range []string{"bfs.wk", "cc.wk", "sssp.wk", "pr.wk", "tf.wk", "tc.wk", "ts.air", "ts.pow"} {
		for _, s := range []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeHier} {
			specs = append(specs, syncron.RunSpec{Workload: w, Config: syncron.Config{Scheme: s, Seed: 3},
				Params: syncron.WorkloadParams{Scale: 0.02}})
		}
	}
	batched := make([][]byte, len(specs))
	for i, spec := range specs {
		batched[i] = executeJSON(t, spec)
	}
	defer program.SetBatches(program.SetBatches(false))
	for i, spec := range specs {
		if got := executeJSON(t, spec); string(got) != string(batched[i]) {
			t.Errorf("%s/%s: unbatched result differs:\n%s\nbatched:\n%s",
				spec.Workload, spec.Config.Scheme, got, batched[i])
		}
	}
}
