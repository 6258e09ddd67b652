package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"syncron"
	"syncron/internal/serve"
)

const (
	// serveWarmSet is the number of distinct warm specs; serveMaxJobs is
	// below it, so a cycled warm spec's previous job has been evicted and the
	// request reaches the result cache rather than the job table.
	serveWarmSet = 64
	serveMaxJobs = 32
	// serveRequests per pass, every serveColdEvery-th one a cold spec: 1080
	// warm and 120 cold requests, so 108 and 12 samples of one pass lie
	// beyond the warm p90 and the cold p90.
	serveRequests  = 1200
	serveColdEvery = 10
	// coldCheckEvery: every this many cold specs of the warm-up pass are
	// simulated again with syncron.Execute and byte-compared with /result.
	coldCheckEvery = 8

	// pathHeader carries the request's path (warm or cold) to the server in
	// traced passes, where it becomes the pathLabel profiler label.
	pathHeader = "X-Perfbench-Path"
	pathLabel  = "perfbench_path"
)

// serveWorkload drives an in-process serve daemon over a loopback listener
// with one closed-loop client. Each pass starts a fresh daemon over a fresh
// directory cache prefilled with the warm set, then sends the same request
// schedule: warm specs cycled in a seeded order, one cold spec in ten.
type serveWorkload struct {
	tmp       string
	warm      []syncron.RunSpec
	warmOrder []int
	cold      []syncron.RunSpec
	warmBytes [][]byte // reference /result bytes of each warm spec
}

func newServeWorkload(seed uint64, tmp string) (*serveWorkload, error) {
	// The daemon cannot be asked for the serial dispatcher (Parallelism is
	// not part of a spec's JSON), and its default resolves to the parallel
	// one on multi-core hosts, which this benchmark does not measure. One
	// closed-loop client and one worker never have two things to run at
	// once, so one P changes nothing but that: cold specs run serially.
	runtime.GOMAXPROCS(1)
	w := &serveWorkload{tmp: tmp}
	// Warm specs are small: a hit's cost does not depend on run size, and
	// the warm set is simulated again in every pass's set-up.
	for _, prim := range []string{"lock", "barrier", "semaphore", "condvar"} {
		for _, s := range mainSchemes {
			for k := 0; k < serveWarmSet/16; k++ {
				w.warm = append(w.warm, syncron.RunSpec{Workload: prim,
					Config: syncron.Config{Scheme: s, Units: 2, CoresPerUnit: 4,
						Seed: mix64(seed, 2, uint64(len(w.warm)))},
					Params: syncron.WorkloadParams{Rounds: 10}})
			}
		}
	}
	w.warmOrder = rand.New(rand.NewPCG(seed, 2)).Perm(len(w.warm))
	coldWorkloads := []string{"lock", "barrier", "stack", "queue"}
	for i := 0; i < serveRequests/serveColdEvery; i++ {
		wl := coldWorkloads[i%len(coldWorkloads)]
		p := syncron.WorkloadParams{Rounds: 20}
		if wl == "stack" || wl == "queue" {
			p = syncron.WorkloadParams{Scale: 0.05, OpsPerCore: 20}
		}
		w.cold = append(w.cold, syncron.RunSpec{Workload: wl,
			Config: syncron.Config{Scheme: mainSchemes[(i/len(coldWorkloads))%len(mainSchemes)],
				Seed: mix64(seed, 3, uint64(i))},
			Params: p})
	}
	return w, nil
}

func (w *serveWorkload) specCount() int { return len(w.warm) + len(w.cold) }

func (w *serveWorkload) close() {}

func (w *serveWorkload) profileScope() string { return "" }

// daemon is one running serve daemon and its client.
type daemon struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// start prefills a fresh cache with the warm set, checks the warm results,
// and starts the daemon on a loopback port. A non-nil tc (traced passes)
// decorates the cache and turns the profiler labels on. It sets ps.setup to
// the host time of simulating the warm set plus starting the daemon. The
// 64 cache writes in between are left out: on the host named in README.md
// the same writes took 5 or 37 ms depending on the file system's state,
// which would decide setup_s on its own. The traced run times them as
// runcache.put_us_p50.
func (w *serveWorkload) start(tc *timedCache, ps *passStats, failf func(string, ...any)) (*daemon, error) {
	dir, err := os.MkdirTemp(w.tmp, "perfbench-serve-*")
	if err != nil {
		return nil, fmt.Errorf("creating the serve cache: %w", err)
	}
	d := &daemon{dir: dir}
	dc, err := syncron.DirCache(dir)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("opening the serve cache: %w", err)
	}
	var rc syncron.ResultCache = dc
	if tc != nil {
		tc.inner = dc
		rc = tc
	}

	prefill := make([]syncron.RunSpec, len(w.warm))
	for i, s := range w.warm {
		s.Config.Parallelism = syncron.ParallelismSerial
		prefill[i] = s
	}
	t0 := time.Now()
	results := syncron.SpecRunner{Workers: 1}.Run(prefill)
	ps.setup = time.Since(t0).Seconds()
	ref := w.warmBytes == nil
	if ref {
		w.warmBytes = make([][]byte, len(results))
	}
	for i, res := range results {
		ps.attempted++
		res.GridIndex = 0 // a single-spec job's position
		var buf bytes.Buffer
		if err := syncron.WriteJSON(&buf, []syncron.RunResult{res}); err != nil || res.Err != "" {
			failf("prefilling warm spec %d: %v %s", i, err, res.Err)
		}
		if ref {
			w.warmBytes[i] = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), w.warmBytes[i]) {
			failf("warm spec %d simulated differently from the warm-up pass", i)
		}
		if res.Err == "" {
			if err := syncron.CacheResult(rc, res); err != nil {
				failf("caching warm spec %d: %v", i, err)
			}
		}
	}

	t1 := time.Now()
	defer func() { ps.setup += time.Since(t1).Seconds() }()

	d.srv = serve.New(serve.Options{Cache: rc, Workers: 1, MaxJobs: serveMaxJobs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	var h http.Handler = d.srv.Handler()
	if tc != nil {
		h = labelled(h)
	}
	d.hs = &http.Server{Handler: h}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{}}
	// Open the keep-alive connection before any labelled request, so the
	// transport's connection goroutines carry no path label.
	if _, _, err := d.do(http.MethodGet, "/healthz", nil, ""); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the daemon down and waits for its goroutines.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.hs != nil {
		_ = d.hs.Shutdown(ctx) // closes the listener; Serve returns ErrServerClosed
		<-d.served
		d.client.CloseIdleConnections()
	}
	if d.srv != nil {
		_ = d.srv.Shutdown(ctx) // nothing is queued once every request was answered
	}
	os.RemoveAll(d.dir)
}

// do sends one request and reads the whole answer.
func (d *daemon) do(method, path string, body []byte, label string) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if label != "" {
		req.Header.Set(pathHeader, label)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// labelled marks the handler goroutine with the request's path label for
// the duration of the request, so the profiler can isolate the warm path.
func labelled(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.Header.Get(pathHeader)
		if path == "" {
			h.ServeHTTP(w, r)
			return
		}
		pprof.Do(r.Context(), pprof.Labels(pathLabel, path), func(context.Context) { h.ServeHTTP(w, r) })
	})
}

// fetch submits one spec and returns its /result bytes once the job is
// done, with the POST and GET /result round trips.
func (d *daemon) fetch(spec syncron.RunSpec, label string) (result []byte, admit, get time.Duration, err error) {
	body, err := json.Marshal(serve.SubmitRequest{Specs: []syncron.RunSpec{spec}})
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	code, b, err := d.do(http.MethodPost, "/jobs", body, label)
	admit = time.Since(t0)
	if err == nil && code/100 != 2 {
		err = fmt.Errorf("POST /jobs: %d %s", code, bytes.TrimSpace(b))
	}
	if err != nil {
		return nil, admit, 0, err
	}
	var st serve.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, admit, 0, fmt.Errorf("decoding job status: %w", err)
	}
	if st.State != serve.StateDone {
		// The event stream ends once the job is terminal.
		if code, b, err := d.do(http.MethodGet, "/jobs/"+st.ID+"/events", nil, label); err != nil || code != http.StatusOK {
			return nil, admit, 0, fmt.Errorf("following job %s: %d %s %v", st.ID, code, b, err)
		}
	}
	t1 := time.Now()
	code, result, err = d.do(http.MethodGet, "/jobs/"+st.ID+"/result", nil, label)
	get = time.Since(t1)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET result: %d %s", code, bytes.TrimSpace(result))
	}
	return result, admit, get, err
}

func (w *serveWorkload) pass(traced bool) passStats {
	ps := passStats{layer: map[string]float64{}}
	failf := func(format string, args ...any) {
		ps.failed++
		ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
	}
	var tc *timedCache
	if traced {
		tc = &timedCache{}
	}
	ref := w.warmBytes == nil
	d, err := w.start(tc, &ps, failf)
	if err != nil {
		fatalf("starting the serve daemon: %v", err)
	}
	defer d.stop()

	h := sha256.New()
	for _, b := range w.warmBytes {
		h.Write(b)
	}
	var admits, gets []float64
	var warmSent, coldSent int
	type coldAnswer struct {
		spec   syncron.RunSpec
		result []byte
	}
	var checks []coldAnswer
	obj0, b0 := allocCounters()
	start := time.Now()
	for i := 0; i < serveRequests; i++ {
		cold := i%serveColdEvery == serveColdEvery-1
		var spec syncron.RunSpec
		var want []byte
		kind := "warm"
		if cold {
			spec, kind = w.cold[coldSent], "cold"
			coldSent++
		} else {
			k := w.warmOrder[warmSent%len(w.warmOrder)]
			spec, want = w.warm[k], w.warmBytes[k]
			warmSent++
		}
		label := "" // profiler label, traced passes only
		if traced {
			label = kind
		}
		var result []byte
		var admit, get time.Duration
		t := time.Now()
		if label != "" {
			pprof.Do(context.Background(), pprof.Labels(pathLabel, label), func(context.Context) {
				result, admit, get, err = d.fetch(spec, label)
			})
		} else {
			result, admit, get, err = d.fetch(spec, label)
		}
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		ps.attempted++
		admits = append(admits, float64(admit.Nanoseconds())/1e6)
		gets = append(gets, float64(get.Nanoseconds())/1e6)
		switch {
		case err != nil:
			failf("request %d (%s under %s): %v", i, spec.Workload, spec.Config.Scheme, err)
		case cold:
			ps.coldMs = append(ps.coldMs, ms)
			h.Write(result)
			if ref && coldSent%coldCheckEvery == 1 {
				checks = append(checks, coldAnswer{spec, result})
			}
		case !bytes.Equal(result, want):
			failf("warm answer for %s under %s differs from its prefilled result", spec.Workload, spec.Config.Scheme)
		default:
			ps.warmMs = append(ps.warmMs, ms)
		}
	}
	ps.wall = time.Since(start).Seconds()
	obj1, b1 := allocCounters()
	ps.allocs, ps.allocBytes = obj1-obj0, b1-b0
	copy(ps.digest[:], h.Sum(nil))

	// Traffic self-check: the daemon must have seen exactly the traffic the
	// workload claims to send.
	code, b, err := d.do(http.MethodGet, "/metrics", nil, "")
	var m serve.Metrics
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(b, &m)
	}
	ps.attempted++
	switch {
	case err != nil || code != http.StatusOK:
		failf("GET /metrics: %d %v", code, err)
	case m.CacheHits != uint64(warmSent) || m.Simulated != uint64(coldSent) || m.JobsRejected != 0:
		failf("traffic self-check: cache_hits=%d (sent %d warm) simulated=%d (sent %d cold) jobs_rejected=%d",
			m.CacheHits, warmSent, m.Simulated, coldSent, m.JobsRejected)
	}
	ps.events = m.SimEvents

	// /result bytes must be exactly what the batch path writes for the spec.
	for _, c := range checks {
		ps.attempted++
		c.spec.Config.Parallelism = syncron.ParallelismSerial
		res := syncron.Execute(c.spec)
		res.Key = syncron.SpecKey(c.spec)
		var buf bytes.Buffer
		if err := syncron.WriteJSON(&buf, []syncron.RunResult{res}); err != nil || !bytes.Equal(buf.Bytes(), c.result) {
			failf("cold answer for %s under %s differs from syncron.Execute (%v)", c.spec.Workload, c.spec.Config.Scheme, err)
		}
	}

	if traced {
		ps.layer["serve.admit_ms_p50"] = median(admits)
		ps.layer["serve.result_ms_p50"] = median(gets)
		tc.report(ps.layer)
	}
	return ps
}
