// Command perfbench is the repository's benchmark: it runs one named
// workload through the public API for a fixed number of seconds, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as one JSON object on its last line.
//
//	go run . --workload sync-prims --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark workload: a set-up, one untimed warm-up pass
// whose results become the reference, then timed passes until the budget is
// spent.
type workload interface {
	// specCount is the number of distinct simulated specs one pass uses.
	specCount() int
	// profileScope is the profiler label value whose samples the layer
	// shares count; "" counts every sample.
	profileScope() string
	// pass runs one pass over the workload. traced turns the decorators on;
	// the CPU profile is the caller's business.
	pass(traced bool) passStats
	// close releases whatever the workload holds (temp dirs).
	close()
}

// passStats is what one pass measured and checked.
type passStats struct {
	wall, setup        float64 // seconds
	peakRSS            float64 // MB
	attempted, failed  int
	failures           []string
	warmMs, coldMs     []float64
	events             uint64
	layer              map[string]float64 // per-pass per-layer values (traced passes)
	digest             [sha256.Size]byte  // of every simulated result the pass produced, in order
	allocs, allocBytes uint64
	traced             bool
	// orderDiffs counts the coherence-scheme specs whose makespan differed
	// from the warm-up pass's (a known defect; see coherenceSchemes), and
	// orderMaxRel is the largest such difference, relative.
	orderDiffs  int
	orderMaxRel float64
}

// scaleTimes scales the pass's end-to-end times by f (see refCalibSeconds).
// The per-layer values stay in raw host time.
func (ps *passStats) scaleTimes(f float64) {
	ps.wall *= f
	ps.setup *= f
	for i := range ps.warmMs {
		ps.warmMs[i] *= f
	}
	for i := range ps.coldMs {
		ps.coldMs[i] *= f
	}
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every spec seed derives from it")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	w, err := newWorkload(*name, *seed, "") // caches go under $TMPDIR
	if err != nil {
		fatalf("%v", err)
	}
	defer w.close()

	printEnv(*name, *seed, w.specCount())
	ref := w.pass(false) // warm-up: caches fill, lazy set-up finishes, reference results
	fmt.Printf("digest %s %x\n", *name, ref.digest)
	tot := totals{attempted: ref.attempted, failed: ref.failed, failures: ref.failures}

	var passes []passStats // in run order
	var calibs []float64   // calibs[i] and calibs[i+1] bracket passes[i]
	var prof *profiler
	if *trace == 1 {
		prof = newProfiler(w.profileScope())
	}
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		// The traced run alternates untraced and traced passes, so both see
		// the same host conditions and their ratio is the tracing overhead.
		on := *trace == 1 && i%2 == 1
		runtime.GC() // each pass starts from a collected heap, not the last pass's garbage
		calibs = append(calibs, calibrate())
		if on {
			prof.start()
		}
		rs := startRSS()
		ps := w.pass(on)
		ps.peakRSS = rs.peak()
		if on {
			prof.stop()
		}
		ps.traced = on
		passes = append(passes, ps)
		tot.add(ps)
		if ps.digest != ref.digest {
			tot.fail(fmt.Sprintf("pass %d: simulated results differ from the warm-up pass (%x != %x)", i, ps.digest, ref.digest))
		}
	}
	runtime.GC()
	calibs = append(calibs, calibrate())
	printPasses("calib_s", calibs)

	var plain, traced []passStats
	for i, ps := range passes {
		ps.scaleTimes(refCalibSeconds / ((calibs[i] + calibs[i+1]) / 2))
		if ps.traced {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
	}

	var out map[string]metric
	if *trace == 0 {
		out = endToEnd(plain)
	} else {
		out = perLayer(plain, traced, prof)
	}
	for _, f := range tot.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if tot.orderDiffs > 0 {
		fmt.Printf("known defect: %d coherence-scheme makespans differed from the warm-up pass's (largest by %.3g, relative); internal/coherence invalidates sharers in map order\n",
			tot.orderDiffs, tot.orderMaxRel)
	}
	fmt.Printf("fail_frac %.6g (%d of %d operations)\n", float64(tot.failed)/float64(max(tot.attempted, 1)), tot.failed, tot.attempted)
	enc, err := json.Marshal(result{Correct: tot.failed == 0, Attempted: tot.attempted, Failed: tot.failed, Metrics: out})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(enc))
	if tot.failed != 0 {
		w.close()
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type totals struct {
	attempted, failed int
	failures          []string
	orderDiffs        int
	orderMaxRel       float64
}

func (t *totals) add(ps passStats) {
	t.attempted += ps.attempted
	t.failed += ps.failed
	t.failures = append(t.failures, ps.failures...)
	t.orderDiffs += ps.orderDiffs
	t.orderMaxRel = max(t.orderMaxRel, ps.orderMaxRel)
}

// fail records a check that is not tied to one operation; it counts as one
// attempted, failed operation.
func (t *totals) fail(msg string) {
	t.attempted++
	t.failed++
	t.failures = append(t.failures, msg)
}

// endToEnd reduces the untraced passes to the end-to-end metrics: medians
// over passes. A latency percentile is the median of the per-pass
// percentiles when every pass has at least minBeyond samples beyond it, and
// is taken over the run's pooled samples otherwise.
func endToEnd(passes []passStats) map[string]metric {
	var wall, setup, rss []float64
	warm := make([][]float64, len(passes))
	cold := make([][]float64, len(passes))
	for i, ps := range passes {
		wall = append(wall, ps.wall)
		setup = append(setup, ps.setup)
		rss = append(rss, ps.peakRSS)
		warm[i], cold[i] = ps.warmMs, ps.coldMs
	}
	printPasses("wall_s", wall)
	printPasses("setup_s", setup)
	printPasses("peak_rss_mb", rss)
	return map[string]metric{
		"wall_s":      {median(wall), "s"},
		"setup_s":     {median(setup), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"warm_p50_ms": {passPercentile("warm", warm, 0.50), "ms"},
		"warm_p90_ms": {passPercentile("warm", warm, 0.90), "ms"},
		"cold_p50_ms": {passPercentile("cold", cold, 0.50), "ms"},
		"cold_p90_ms": {passPercentile("cold", cold, 0.90), "ms"},
	}
}

// minBeyond is how many samples of every pass must lie beyond a percentile
// for the per-pass rule; with fewer, the pooled samples are steadier.
const minBeyond = 25

// passPercentile applies endToEnd's percentile rule and prints the sample
// counts behind it.
func passPercentile(name string, passes [][]float64, p float64) float64 {
	var pooled, perPass []float64
	fewest := math.MaxInt
	for _, s := range passes {
		pooled = append(pooled, s...)
		perPass = append(perPass, percentile(s, p))
		fewest = min(fewest, beyond(len(s), p))
	}
	if fewest >= minBeyond {
		printPasses(fmt.Sprintf("%s_p%g_ms", name, 100*p), perPass)
		fmt.Printf("samples %s p%g: median of %d passes, each with >= %d beyond\n", name, 100*p, len(passes), fewest)
		return median(perPass)
	}
	fmt.Printf("samples %s p%g: %d pooled from %d passes, %d beyond\n", name, 100*p, len(pooled), len(passes), beyond(len(pooled), p))
	return percentile(pooled, p)
}

// printPasses prints one metric's per-pass values, so a run's median can be
// read against its spread.
func printPasses(name string, v []float64) {
	fmt.Printf("passes %s:", name)
	for _, x := range v {
		fmt.Printf(" %.4g", x)
	}
	fmt.Println()
}

// perLayerNames lists every per-layer metric with its unit, in report order.
var perLayerNames = []struct{ name, unit string }{
	{"cpu.program", "frac"}, {"cpu.runtime", "frac"}, {"cpu.engine", "frac"},
	{"cpu.sync", "frac"}, {"cpu.machine", "frac"}, {"cpu.workloads", "frac"},
	{"cpu.serve", "frac"}, {"cpu.runcache", "frac"}, {"cpu.other", "frac"},
	{"cpu.warm_path.serve_share", "frac"},
	{"sim.ns_per_event", "ns"}, {"engine.events", "count"},
	{"sync.requests", "count"}, {"sync.ns_per_request", "ns"},
	{"workloads.check_s", "s"},
	{"runtime.allocs_per_event", "count"}, {"runtime.bytes_per_event", "B"},
	{"serve.admit_ms_p50", "ms"}, {"serve.result_ms_p50", "ms"},
	{"runcache.get_us_p50", "us"}, {"runcache.put_us_p50", "us"}, {"runcache.hits", "count"},
	{"trace.overhead_frac", "frac"},
}

// perLayer reduces the traced passes (decorator counters, CPU profile) to the
// per-layer metrics. Counters are per pass, medians over traced passes; the
// tracing overhead compares the traced and untraced pass medians.
func perLayer(plain, traced []passStats, prof *profiler) map[string]metric {
	out := map[string]metric{}
	for _, n := range perLayerNames {
		var vals []float64
		for _, ps := range traced {
			if v, ok := ps.layer[n.name]; ok {
				vals = append(vals, v)
			}
		}
		v := 0.0 // a layer the workload does not exercise
		if len(vals) > 0 {
			v = median(vals)
		}
		out[n.name] = metric{v, n.unit}
	}
	var events, allocs, allocBytes float64
	for _, ps := range traced {
		events += float64(ps.events)
		allocs += float64(ps.allocs)
		allocBytes += float64(ps.allocBytes)
	}
	if events > 0 {
		out["engine.events"] = metric{events / float64(len(traced)), "count"}
		out["runtime.allocs_per_event"] = metric{allocs / events, "count"}
		out["runtime.bytes_per_event"] = metric{allocBytes / events, "B"}
	}
	shares, warmShares := prof.shares()
	for layer, share := range shares {
		out["cpu."+layer] = metric{share, "frac"}
	}
	out["cpu.warm_path.serve_share"] = metric{warmShares["serve"] + warmShares["runcache"] + warmShares["other"], "frac"}
	var pw, tw []float64
	for _, ps := range plain {
		pw = append(pw, ps.wall)
	}
	for _, ps := range traced {
		tw = append(tw, ps.wall)
	}
	out["trace.overhead_frac"] = metric{median(tw)/median(pw) - 1, "frac"}
	fmt.Printf("profile samples=%d in scope %q (warm-path samples=%d)\n", prof.total, prof.scope, prof.warmTotal)
	for _, n := range perLayerNames {
		if strings.HasPrefix(n.name, "cpu.") {
			fmt.Printf("  %-26s %6.3f\n", n.name, out[n.name].Value)
		}
	}
	if len(warmShares) > 0 {
		fmt.Printf("  warm path: %s\n", formatShares(warmShares))
	}
	return out
}

func formatShares(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.3f", k, m[k])
	}
	return strings.Join(parts, " ")
}

// allocCounters reads the cumulative heap allocation counters; the
// difference around a pass is its allocation volume. Unlike ReadMemStats it
// does not stop the world.
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// rssInterval is how often an rssSampler reads the resident set.
const rssInterval = 2 * time.Millisecond

// rssSampler tracks the process's peak resident set while a pass runs. The
// process-wide high-water mark (VmHWM) is set by whichever pass's GC cycle
// happened to start latest, a host hiccup away from the next run's, so each
// pass measures its own peak and the run reports their median.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		peak := residentMB()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the peak it saw.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}

// residentMB reads the process's resident set from /proc/self/statm.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		fatalf("reading the resident set: %v", err)
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		fatalf("parsing /proc/self/statm %q", raw)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		fatalf("parsing /proc/self/statm %q: %v", raw, err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// printEnv prints the environment block, so reports from different hosts
// are never compared blind.
func printEnv(name string, seed uint64, specs int) {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("env cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d workload=%s specs=%d\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, name, specs)
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (NaN for no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// beyond is the number of samples above the p-th percentile of n samples.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
