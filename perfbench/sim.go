package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"syncron"
)

// workloadNames are the benchmark's workloads, in documentation order.
var workloadNames = []string{"sync-prims", "apps-flat", "ds-bank", "serve-mixed"}

// newWorkload builds the named workload's inputs from seed. The serve
// daemon's cache lives in a fresh directory under tmp ("" means the OS
// default).
func newWorkload(name string, seed uint64, tmp string) (workload, error) {
	if name == "serve-mixed" {
		return newServeWorkload(seed, tmp)
	}
	specs, ok := simSpecs(name, seed)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return newSimWorkload(specs), nil
}

// mix64 is the splitmix64 finalizer: it turns (seed, stream, index) into a
// well-spread, non-zero spec seed, so every spec seed derives from the
// workload seed and no two streams collide.
func mix64(seed, stream, i uint64) uint64 {
	z := seed + stream*0xbf58476d1ce4e5b9 + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

var mainSchemes = []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeHier, syncron.SchemeSynCron, syncron.SchemeIdeal}

// coherenceSchemes are the schemes whose locks spin on coherent caches.
// Their simulated makespan differs slightly from one run of the same spec to
// the next: internal/coherence invalidates a line's sharers by ranging over a
// map, and the order of the resulting link transfers, which contend, follows
// Go's randomised map order. Every other result field is deterministic. The
// cross-pass check therefore holds these specs to identical results with the
// makespan-derived fields masked and to a makespan within makespanTolerance
// of the warm-up pass's, and reports every makespan that differs at all as
// the known defect it is. Once the invalidation order is deterministic,
// delete this exemption so the check is exact for every spec.
var coherenceSchemes = []syncron.Scheme{syncron.SchemeMESILock, syncron.SchemeTTAS, syncron.SchemeHTL}

// makespanTolerance bounds a coherence scheme's makespan difference from the
// warm-up pass, relative; the invalidation order has moved it by under 1e-4.
const makespanTolerance = 1e-3

// orderDependent reports whether spec's makespan depends on map order.
func orderDependent(spec syncron.RunSpec) bool {
	return slices.Contains(coherenceSchemes, spec.Config.Scheme)
}

// masked is res with the makespan-derived fields cleared when they are
// order dependent, so its encoding is the same in every run.
func masked(res syncron.RunResult) syncron.RunResult {
	if orderDependent(res.Spec) {
		res.Makespan, res.OpsPerMs, res.MopsPerSec = 0, 0, 0
	}
	return res
}

// simSpecs is the fixed spec list of a simulation workload. Specs run on the
// serial dispatcher; Parallelism is outside SpecKey, so results are the ones
// any dispatcher produces.
func simSpecs(name string, seed uint64) ([]syncron.RunSpec, bool) {
	var specs []syncron.RunSpec
	add := func(workload string, cfg syncron.Config, p syncron.WorkloadParams) {
		cfg.Seed = mix64(seed, 1, uint64(len(specs)))
		cfg.Parallelism = syncron.ParallelismSerial
		specs = append(specs, syncron.RunSpec{Workload: workload, Config: cfg, Params: p})
	}
	switch name {
	case "sync-prims":
		// Five times the figures-quick rounds.
		for _, prim := range []string{"lock", "barrier", "semaphore", "condvar"} {
			for _, s := range []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeHier,
				syncron.SchemeSynCron, syncron.SchemeSynCronFlat, syncron.SchemeIdeal} {
				add(prim, syncron.Config{Scheme: s}, syncron.WorkloadParams{Rounds: 100})
			}
		}
		// The coherence-based locks: coherlock over internal/coherence.
		for _, s := range coherenceSchemes {
			add("lock", syncron.Config{Scheme: s}, syncron.WorkloadParams{Rounds: 100})
		}
	case "apps-flat":
		for _, w := range []string{"pr.wk", "bfs.wk", "ts.air", "ts.pow"} {
			for _, s := range mainSchemes {
				add(w, syncron.Config{Scheme: s, MemModel: syncron.MemModelFlat}, syncron.WorkloadParams{Scale: 0.15})
			}
		}
	case "ds-bank":
		for _, w := range []string{"stack", "queue", "hashtable", "skiplist", "bst_fg"} {
			for _, s := range mainSchemes {
				add(w, syncron.Config{Scheme: s, MemModel: syncron.MemModelBank}, syncron.WorkloadParams{Scale: 0.1})
			}
		}
		// A Synchronization Table of 8 entries overflows on bst_fg's many
		// fine-grained locks, driving SynCron's overflow fallback.
		for _, w := range []string{"bst_fg", "hashtable"} {
			add(w, syncron.Config{Scheme: syncron.SchemeSynCron, MemModel: syncron.MemModelBank, STEntries: 8},
				syncron.WorkloadParams{Scale: 0.1})
		}
	default:
		return nil, false
	}
	return specs, true
}

// warmLookups is the minimum number of warm lookups per pass: 300 samples
// of one pass lie beyond its 90th percentile.
const warmLookups = 3000

// simWorkload runs a fixed spec list one spec at a time through the
// decomposed path (New, Prepare, Run, Check), stores each result in a result
// cache, and then serves the results back from that cache: the cold path is
// a spec simulated from scratch, the warm path the same spec answered by the
// cache the way the serve daemon answers a hit. The cache is in memory, so
// the warm path is the repository's key and decode work, not file reads,
// whose latency on a shared host is the file system's (serve-mixed answers
// from a directory cache).
type simWorkload struct {
	specs []syncron.RunSpec
	keys  []string
	cache memCache
	// ref holds the warm-up pass's results: their masked encodings and
	// their makespans.
	ref         [][]byte
	refMakespan []syncron.Time
}

func newSimWorkload(specs []syncron.RunSpec) *simWorkload {
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = syncron.SpecKey(s)
	}
	return &simWorkload{specs: specs, keys: keys, cache: memCache{}}
}

// memCache is an in-memory syncron.ResultCache.
type memCache map[string][]byte

func (c memCache) Get(key string) ([]byte, bool) {
	p, ok := c[key]
	return p, ok
}

func (c memCache) Put(key string, payload []byte) error {
	c[key] = payload
	return nil
}

func (w *simWorkload) specCount() int { return len(w.specs) }

func (w *simWorkload) profileScope() string { return simLabel }

func (w *simWorkload) close() {}

// simLabel is the profiler label value of a traced pass's New → Check loop;
// the sim workloads' layer shares count only samples that carry it, not the
// benchmark's own checks, cache lookups and forced GCs.
const simLabel = "sim"

func (w *simWorkload) pass(traced bool) passStats {
	ps := passStats{layer: map[string]float64{}}
	failf := func(format string, args ...any) {
		ps.failed++
		ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
	}
	results := make([]syncron.RunResult, len(w.specs))
	var runNs, checkNs, syncNs int64
	var syncCalls, syncTimed uint64
	cold := func() {
		for i, spec := range w.specs {
			res, tm := runSpec(spec, traced)
			ps.attempted++
			ps.coldMs = append(ps.coldMs, float64((tm.setup+tm.run+tm.check).Nanoseconds())/1e6)
			ps.events += res.Events
			runNs += tm.run.Nanoseconds()
			checkNs += tm.check.Nanoseconds()
			syncCalls += tm.syncCalls
			syncTimed += tm.syncTimed
			syncNs += tm.syncNs
			if res.Err != "" {
				failf("%s under %s: %s", spec.Workload, spec.Config.Scheme, res.Err)
			}
			res.Key = w.keys[i]
			results[i] = res
		}
	}
	obj0, b0 := allocCounters()
	start := time.Now()
	if traced {
		pprof.Do(context.Background(), pprof.Labels(pathLabel, simLabel), func(context.Context) { cold() })
	} else {
		cold()
	}
	ps.wall = time.Since(start).Seconds()
	obj1, b1 := allocCounters()
	ps.allocs, ps.allocBytes = obj1-obj0, b1-b0

	// Cross-pass check: every result equal to the warm-up pass's, with the
	// coherence schemes' makespans held to a tolerance (see coherenceSchemes).
	h := sha256.New()
	encoded := make([][]byte, len(w.specs))
	ref := w.ref == nil
	if ref {
		w.ref = make([][]byte, len(w.specs))
		w.refMakespan = make([]syncron.Time, len(w.specs))
	}
	for i, res := range results {
		enc, err := json.Marshal(res)
		m, merr := json.Marshal(masked(res))
		if err != nil || merr != nil {
			failf("encoding %s: %v %v", w.specs[i].Workload, err, merr)
		}
		encoded[i] = enc
		h.Write(m)
		if ref {
			w.ref[i], w.refMakespan[i] = m, res.Makespan
			continue
		}
		ps.attempted++
		if !bytes.Equal(m, w.ref[i]) {
			failf("%s under %s: simulated result differs from the warm-up pass", w.specs[i].Workload, w.specs[i].Config.Scheme)
		} else if d := res.Makespan - w.refMakespan[i]; d != 0 {
			rel := math.Abs(float64(d)) / float64(w.refMakespan[i])
			ps.orderDiffs++
			ps.orderMaxRel = max(ps.orderMaxRel, rel)
			if rel > makespanTolerance {
				failf("%s under %s: makespan %d differs from the warm-up pass's %d by more than %g",
					w.specs[i].Workload, w.specs[i].Config.Scheme, res.Makespan, w.refMakespan[i], makespanTolerance)
			}
		}
	}
	copy(ps.digest[:], h.Sum(nil))

	// Warm path: store every result, then answer each spec from the cache
	// as the serve daemon answers a hit (SpecKey, Get, decode) until
	// warmLookups answers were timed, and check each answer against the
	// simulated result.
	var cache syncron.ResultCache = w.cache
	tc := &timedCache{inner: w.cache}
	if traced {
		cache = tc
	}
	for _, res := range results {
		if res.Err == "" {
			if err := syncron.CacheResult(cache, res); err != nil {
				failf("caching %s: %v", res.Spec.Workload, err)
			}
		}
	}
	runtime.GC() // the cold phase's garbage is not the warm path's cost
	for n := 0; n < warmLookups; {
		for i, spec := range w.specs {
			t := time.Now()
			key := syncron.SpecKey(spec)
			payload, hit := cache.Get(key)
			got, err := syncron.DecodeCachedResult(payload)
			ps.warmMs = append(ps.warmMs, float64(time.Since(t).Nanoseconds())/1e6)
			ps.attempted++
			n++
			enc, _ := json.Marshal(got)
			if !hit || err != nil || !bytes.Equal(enc, encoded[i]) {
				failf("warm answer for %s under %s differs from the simulated result (hit=%v, %v)",
					spec.Workload, spec.Config.Scheme, hit, err)
			}
		}
	}

	ps.setup = w.setupSeconds(failf)

	if traced {
		ps.layer["sync.requests"] = float64(syncCalls)
		if syncTimed > 0 {
			ps.layer["sync.ns_per_request"] = float64(syncNs) / float64(syncTimed)
		}
		if ps.events > 0 {
			ps.layer["sim.ns_per_event"] = float64(runNs) / float64(ps.events)
		}
		ps.layer["workloads.check_s"] = float64(checkNs) / 1e9
		tc.report(ps.layer)
	}
	return ps
}

// setupReps is how many times setupSeconds sets up each spec.
const setupReps = 5

// setupSeconds is the set-up time of one pass over the spec list: New and
// Prepare of every spec, each the median of setupReps set-ups, summed. The
// median keeps a GC cycle or a scheduling hiccup, which can double a few
// milliseconds of allocation-heavy set-up, out of the sum. Prepare only
// builds state; nothing runs until System.Run, so nothing is left behind.
func (w *simWorkload) setupSeconds(failf func(string, ...any)) float64 {
	runtime.GC()
	total := 0.0
	reps := make([]float64, setupReps)
	for _, spec := range w.specs {
		wl, ok := syncron.LookupWorkload(spec.Workload)
		if !ok {
			failf("unknown workload %q", spec.Workload)
			continue
		}
		for r := range reps {
			t := time.Now()
			sys := syncron.New(spec.Config)
			_, err := wl.Prepare(sys, spec.Params)
			reps[r] = time.Since(t).Seconds()
			if err != nil {
				failf("preparing %s under %s: %v", spec.Workload, spec.Config.Scheme, err)
			}
		}
		total += median(reps)
	}
	return total
}

// specTiming is the host time of one spec's phases, plus the sync-layer
// counters of its decorated Backend (traced runs only).
type specTiming struct {
	setup, run, check time.Duration
	syncCalls         uint64
	syncTimed         uint64 // calls whose host time syncNs sums
	syncNs            int64
}

// runSpec executes one spec through the decomposed public path — New,
// optionally decorated Backend, Prepare, Run, Check and the runner's lock
// checker — and assembles the same RunResult syncron.Execute returns.
func runSpec(spec syncron.RunSpec, decorate bool) (res syncron.RunResult, tm specTiming) {
	res = syncron.RunResult{Spec: spec, Seed: spec.Config.Seed}
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Sprint(p)
		}
	}()
	w, ok := syncron.LookupWorkload(spec.Workload)
	if !ok {
		res.Err = fmt.Sprintf("unknown workload %q", spec.Workload)
		return res, tm
	}
	res.Kind = w.Kind()
	t0 := time.Now()
	sys := syncron.New(spec.Config)
	var tb *timedBackend
	if decorate {
		m := sys.Machine()
		m.Backend, tb = wrapBackend(m.Backend)
	}
	res.Spec.Config = sys.Config()
	res.Seed = sys.Machine().Cfg.Seed
	prep, err := w.Prepare(sys, spec.Params)
	t1 := time.Now()
	tm.setup = t1.Sub(t0)
	if err != nil {
		res.Err = err.Error()
		return res, tm
	}
	rep := sys.Run()
	t2 := time.Now()
	tm.run = t2.Sub(t1)
	res.Makespan = rep.Makespan
	res.Ops = prep.Ops
	if rep.Makespan > 0 {
		res.OpsPerMs = float64(prep.Ops) / (rep.Makespan.Seconds() * 1e3)
		res.MopsPerSec = float64(prep.Ops) / rep.Makespan.Seconds() / 1e6
	}
	res.CacheEnergyPJ = rep.CacheEnergyPJ
	res.NetworkEnergyPJ = rep.NetworkEnergyPJ
	res.MemoryEnergyPJ = rep.MemoryEnergyPJ
	res.RowHitRate = rep.RowHitRate
	res.BytesInsideUnits = rep.BytesInsideUnits
	res.BytesAcrossUnits = rep.BytesAcrossUnits
	res.AvgRouteLinks = rep.AvgRouteLinks
	res.STOccupancyMax = rep.STOccupancyMax
	res.STOccupancyMean = rep.STOccupancyMean
	res.OverflowedFraction = rep.OverflowedFraction
	res.Events = rep.Events
	if prep.Check != nil {
		if err := prep.Check(); err != nil {
			res.Err = fmt.Sprintf("functional check failed: %v", err)
		}
	}
	if v := sys.Runner().Violations; v != 0 {
		res.Err = fmt.Sprintf("lock checker: %d mutual-exclusion violations", v)
	}
	tm.check = time.Since(t2)
	if tb != nil {
		tm.syncCalls, tm.syncTimed, tm.syncNs = tb.calls, tb.timed, tb.ns
	}
	return res, tm
}
