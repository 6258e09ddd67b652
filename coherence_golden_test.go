package syncron_test

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"syncron"
)

const coherenceGoldenPath = "testdata/coherence_locks.golden"

// TestCoherenceLocksGolden pins the results of the coherence-based locks,
// which no figure grid contains: lock under mesi-lock, ttas and htl, on the
// AllToAll and Mesh2D interconnects, one Execute JSON line per spec.
// Regenerate with UPDATE_GOLDEN=1 only for a deliberate, documented change
// to the coherence or network timing model.
func TestCoherenceLocksGolden(t *testing.T) {
	var b strings.Builder
	for _, topo := range []syncron.Topology{syncron.TopoAllToAll, syncron.TopoMesh2D} {
		for _, scheme := range []syncron.Scheme{syncron.SchemeMESILock, syncron.SchemeTTAS, syncron.SchemeHTL} {
			res := syncron.Execute(syncron.RunSpec{Workload: "lock",
				Config: syncron.Config{Scheme: scheme, Topology: topo},
				Params: syncron.WorkloadParams{Rounds: 30}})
			if res.Err != "" {
				t.Fatalf("%s on %s: %s", scheme, topo, res.Err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(coherenceGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden updated")
		return
	}
	want, err := os.ReadFile(coherenceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("coherence-lock results deviate from %s:\ngot:\n%s\nwant:\n%s", coherenceGoldenPath, got, want)
	}
}
