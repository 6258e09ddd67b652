package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"syncron"
	"syncron/internal/arch"
)

// smallSpecs picks one spec per simulation workload, shrunk so the test
// stays fast. The ds-bank pick is bst_fg at an 8-entry ST, which overflows
// and so exercises the BackendStats forwarding.
func smallSpecs(t *testing.T) map[string]syncron.RunSpec {
	t.Helper()
	pick := map[string]func(syncron.RunSpec) bool{
		"sync-prims": func(s syncron.RunSpec) bool {
			return s.Workload == "condvar" && s.Config.Scheme == syncron.SchemeSynCron
		},
		"apps-flat": func(s syncron.RunSpec) bool { return s.Workload == "bfs.wk" && s.Config.Scheme == syncron.SchemeHier },
		"ds-bank":   func(s syncron.RunSpec) bool { return s.Workload == "bst_fg" && s.Config.STEntries == 8 },
	}
	out := map[string]syncron.RunSpec{}
	for name, match := range pick {
		specs, ok := simSpecs(name, 7)
		if !ok {
			t.Fatalf("simSpecs(%q) unknown", name)
		}
		for _, s := range specs {
			if match(s) {
				s.Params.Rounds = min(s.Params.Rounds, 10)
				s.Params.Scale = min(s.Params.Scale, 0.05)
				out[name] = s
			}
		}
		if _, ok := out[name]; !ok {
			t.Fatalf("%s has no spec matching the test's pick", name)
		}
	}
	return out
}

// TestDecomposedPathMatchesExecute pins that the benchmark's timed path
// (New, optionally decorated Backend, Prepare, Run, Check) yields exactly the
// RunResult of syncron.Execute, so what the benchmark times is what users run
// and the Backend decorator changes no simulated field.
func TestDecomposedPathMatchesExecute(t *testing.T) {
	for name, spec := range smallSpecs(t) {
		want := syncron.Execute(spec)
		if want.Err != "" {
			t.Fatalf("%s: Execute failed: %s", name, want.Err)
		}
		for _, decorate := range []bool{false, true} {
			got, tm := runSpec(spec, decorate)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (decorated=%v): decomposed result differs from Execute\n got %+v\nwant %+v", name, decorate, got, want)
			}
			if decorate && (tm.syncCalls == 0 || tm.syncTimed == 0) {
				t.Errorf("%s: decorated run counted %d sync requests, timed %d", name, tm.syncCalls, tm.syncTimed)
			}
		}
		if name == "ds-bank" && want.OverflowedFraction == 0 {
			t.Errorf("ds-bank pick no longer overflows its ST; BackendStats forwarding is untested")
		}
	}
}

// TestWrapBackendKeepsStatsInterface pins that the decorator exposes
// arch.BackendStats exactly when the decorated backend does.
func TestWrapBackendKeepsStatsInterface(t *testing.T) {
	for _, s := range []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeCentral, syncron.SchemeIdeal} {
		b := syncron.New(syncron.Config{Scheme: s}).Machine().Backend
		_, inner := b.(arch.BackendStats)
		w, _ := wrapBackend(b)
		if _, outer := w.(arch.BackendStats); outer != inner {
			t.Errorf("%s: BackendStats visible %v through the decorator, %v without", s, outer, inner)
		}
		if w.Name() != b.Name() {
			t.Errorf("%s: decorator renames the backend to %q", s, w.Name())
		}
	}
}

// TestTimedCacheIsTransparent pins that results served through the cache
// decorator equal the simulated ones, and that it counts what it sees.
func TestTimedCacheIsTransparent(t *testing.T) {
	spec := smallSpecs(t)["sync-prims"]
	dir, err := syncron.DirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tc := &timedCache{inner: dir}
	runner := syncron.SpecRunner{Workers: 1, Cache: tc}
	cold := runner.Run([]syncron.RunSpec{spec})[0]
	warm := runner.Run([]syncron.RunSpec{spec})[0]
	if cold.Cached || !warm.Cached {
		t.Fatalf("cached flags: cold %v, warm %v", cold.Cached, warm.Cached)
	}
	// Compare the serialized results: Cached and the execution knobs
	// (Parallelism) are not part of a result and do not survive the cache.
	w, _ := json.Marshal(warm)
	c, _ := json.Marshal(cold)
	if !bytes.Equal(w, c) {
		t.Errorf("warm result differs from the simulated one\n got %s\nwant %s", w, c)
	}
	layer := map[string]float64{}
	tc.report(layer)
	if layer["runcache.hits"] != 1 || layer["runcache.get_us_p50"] <= 0 || layer["runcache.put_us_p50"] <= 0 {
		t.Errorf("cache layer metrics %v, want one hit and positive get/put times", layer)
	}
}

// TestServePassChecks runs one serve-mixed pass, which carries its own
// checks: warm bytes, the /metrics traffic self-check and the comparison of
// sampled cold answers with syncron.Execute.
func TestServePassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon and sends 1200 requests")
	}
	w, err := newServeWorkload(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ps := w.pass(true)
	if ps.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", ps.failed, ps.attempted, ps.failures)
	}
	if len(ps.warmMs) != serveRequests-serveRequests/serveColdEvery || len(ps.coldMs) != serveRequests/serveColdEvery {
		t.Errorf("got %d warm and %d cold samples", len(ps.warmMs), len(ps.coldMs))
	}
	if ps.layer["runcache.hits"] != float64(len(ps.warmMs)) {
		t.Errorf("cache decorator saw %v hits for %d warm requests", ps.layer["runcache.hits"], len(ps.warmMs))
	}
}

// TestProfileAttribution checks the layer rule on known symbol names, then
// profiles a labelled simulation and checks the decoded attribution.
func TestProfileAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"syncron/internal/program.(*Runner).step":        "syncron/internal/program",
		"syncron/internal/sim.(*Heap[go.shape.int]).Pop": "syncron/internal/sim",
		"runtime.mcall":                        "runtime",
		"net/http.(*conn).serve":               "net/http",
		"syncron.Execute":                      "syncron",
		"internal/runtime/atomic.(*Int32).Add": "internal/runtime/atomic",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chansend", "runtime.chansend1", "syncron/internal/program.(*Ctx).do"}, "program"},
		{[]string{"gcWriteBarrier", "syncron/internal/core.(*node).process"}, "sync"},
		{[]string{"runtime.gogo", "runtime.mcall"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).Get", "syncron/internal/network.(*Network).Transfer"}, "machine"},
		{[]string{"syncron/internal/workloads/graphs.bfs"}, "workloads"},
		{[]string{"encoding/json.Marshal", "syncron/internal/serve.writeJSON"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}

	// A labelled simulation inside the scope, then labelled hashing on the
	// warm path outside it: the scoped shares must see only the simulation.
	p := newProfiler(simLabel)
	p.start()
	spec := smallSpecs(t)["sync-prims"]
	pprof.Do(t.Context(), pprof.Labels(pathLabel, simLabel), func(context.Context) {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			syncron.Execute(spec)
		}
	})
	pprof.Do(t.Context(), pprof.Labels(pathLabel, "warm"), func(context.Context) {
		buf := make([]byte, 1<<16)
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
			sha256.Sum256(buf)
		}
	})
	p.stop()
	all, warm := p.shares()
	var sum float64
	for _, share := range all {
		sum += share
	}
	if p.total == 0 || p.warmTotal == 0 || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("%d samples in scope, %d labelled warm, shares sum to %v", p.total, p.warmTotal, sum)
	}
	if all["program"]+all["engine"]+all["sync"] == 0 {
		t.Errorf("no simulator layer among the scoped samples: %v", all)
	}
	if all["other"] > 0.3 || warm["other"] < 0.9 {
		t.Errorf("the hashing outside the scope leaked into it: scoped %v, warm %v", all, warm)
	}
}

// TestCoherenceSpecsPassCrossPassCheck runs the coherence-scheme locks of
// sync-prims, shrunk, through two passes: their makespans may differ from
// pass to pass (the known map-order defect), but only within the tolerance,
// and every other field must match exactly.
func TestCoherenceSpecsPassCrossPassCheck(t *testing.T) {
	all, _ := simSpecs("sync-prims", 7)
	var specs []syncron.RunSpec
	for _, s := range all {
		if orderDependent(s) {
			s.Params.Rounds = 10
			specs = append(specs, s)
		}
	}
	if len(specs) != len(coherenceSchemes) {
		t.Fatalf("sync-prims has %d coherence-scheme specs, want %d", len(specs), len(coherenceSchemes))
	}
	w := newSimWorkload(specs)
	for pass := 0; pass < 2; pass++ {
		if ps := w.pass(pass == 1); ps.failed != 0 {
			t.Fatalf("pass %d: %d of %d operations failed: %v", pass, ps.failed, ps.attempted, ps.failures)
		}
	}
	res := syncron.RunResult{Spec: specs[0], Makespan: 5, OpsPerMs: 1, MopsPerSec: 1, Events: 9}
	if m := masked(res); m.Makespan != 0 || m.OpsPerMs != 0 || m.MopsPerSec != 0 || m.Events != 9 {
		t.Errorf("masked(%+v) = %+v", res, m)
	}
	res.Spec.Config.Scheme = syncron.SchemeSynCron
	if m := masked(res); !reflect.DeepEqual(m, res) {
		t.Errorf("masked changed a deterministic scheme's result: %+v", m)
	}
}

// TestRSSSamplerSeesPeak checks that the per-pass sampler catches memory
// that was touched and released again before it stopped.
func TestRSSSamplerSeesPeak(t *testing.T) {
	base := residentMB()
	s := startRSS()
	buf := make([]byte, 32<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	time.Sleep(10 * rssInterval)
	runtime.KeepAlive(buf)
	if peak := s.peak(); peak < base+24 {
		t.Errorf("peak %.1f MB, want at least %.1f (resident before: %.1f)", peak, base+24, base)
	}
}
