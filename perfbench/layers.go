package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"syncron"
	"syncron/internal/arch"
	"syncron/internal/sim"
)

// timedBackend is a pass-through arch.Backend decorator that counts
// Request calls and samples the host time spent inside them. The serial dispatcher
// calls it from one goroutine, so its counters need no lock.
type timedBackend struct {
	arch.Backend
	calls, timed uint64
	ns           int64
}

func (b *timedBackend) Request(t sim.Time, core int, req arch.SyncReq, done func(sim.Time)) {
	b.calls++
	if b.calls%requestTimingStride != 0 {
		b.Backend.Request(t, core, req, done)
		return
	}
	start := time.Now()
	b.Backend.Request(t, core, req, done)
	b.ns += time.Since(start).Nanoseconds()
	b.timed++
}

// requestTimingStride: only every this many Request calls is timed, keeping
// the clock reads' overhead out of the profile the traced run attributes.
const requestTimingStride = 16

// statsBackend is a timedBackend over a backend that also reports ST
// statistics, which System.Run reads through arch.BackendStats.
type statsBackend struct {
	*timedBackend
	stats arch.BackendStats
}

func (b statsBackend) STOccupancy() (max, mean float64) { return b.stats.STOccupancy() }
func (b statsBackend) OverflowedFraction() float64      { return b.stats.OverflowedFraction() }

// wrapBackend decorates b, keeping arch.BackendStats visible exactly when b
// implements it, and returns the decorator's counters.
func wrapBackend(b arch.Backend) (arch.Backend, *timedBackend) {
	tb := &timedBackend{Backend: b}
	if st, ok := b.(arch.BackendStats); ok {
		return statsBackend{tb, st}, tb
	}
	return tb, tb
}

// timedCache is a pass-through syncron.ResultCache decorator that times
// every Get and Put and counts hits. The serve daemon calls it from handler
// and worker goroutines at once.
type timedCache struct {
	inner syncron.ResultCache

	mu           sync.Mutex
	getUs, putUs []float64
	hits         int
}

func (c *timedCache) Get(key string) ([]byte, bool) {
	start := time.Now()
	payload, ok := c.inner.Get(key)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	c.mu.Lock()
	c.getUs = append(c.getUs, us)
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return payload, ok
}

func (c *timedCache) Put(key string, payload []byte) error {
	start := time.Now()
	err := c.inner.Put(key, payload)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	c.mu.Lock()
	c.putUs = append(c.putUs, us)
	c.mu.Unlock()
	return err
}

// report stores the cache layer's per-pass metrics into layer.
func (c *timedCache) report(layer map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	layer["runcache.hits"] = float64(c.hits)
	if len(c.getUs) > 0 {
		layer["runcache.get_us_p50"] = median(c.getUs)
	}
	if len(c.putUs) > 0 {
		layer["runcache.put_us_p50"] = median(c.putUs)
	}
}

// profiler collects a CPU profile over the traced passes and attributes
// every sample to a layer: the package of the first frame, leaf first, that
// is not the Go runtime. Channel handoff therefore lands on the code that
// sent or received, and samples with no such frame (scheduler work entered
// via mcall, GC workers) land on "runtime". With a scope, only samples
// labelled with it count; goroutines inherit the label of the code that
// starts them, so a labelled System.Run's program goroutines carry it too.
type profiler struct {
	buf              bytes.Buffer
	scope            string
	counts, warm     map[string]int64
	total, warmTotal int64
}

func newProfiler(scope string) *profiler {
	return &profiler{scope: scope, counts: map[string]int64{}, warm: map[string]int64{}}
}

// profileHz is the sampling rate of the traced run: five times
// runtime/pprof's default, so a layer with a 1% share gets tens of samples
// per run. Setting it before StartCPUProfile makes the runtime print a
// warning that the rate is already set; the rate still applies, and only
// sample counts are used, so the profile's stated period does not matter.
const profileHz = 500

func (p *profiler) start() {
	p.buf.Reset()
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		fatalf("starting the CPU profile: %v", err)
	}
}

func (p *profiler) stop() {
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		fatalf("reading the CPU profile: %v", err)
	}
	for _, s := range samples {
		layer := layerOf(s.funcs)
		if p.scope == "" || s.labels[pathLabel] == p.scope {
			p.counts[layer] += s.count
			p.total += s.count
		}
		if s.labels[pathLabel] == "warm" {
			p.warm[layer] += s.count
			p.warmTotal += s.count
		}
	}
}

// shares returns each layer's share of all samples and of the samples
// labelled as the serve warm path.
func (p *profiler) shares() (all, warm map[string]float64) {
	all = map[string]float64{}
	for _, l := range layers {
		all[l] = 0
		if p.total > 0 {
			all[l] = float64(p.counts[l]) / float64(p.total)
		}
	}
	warm = map[string]float64{}
	for l, n := range p.warm {
		warm[l] = float64(n) / float64(p.warmTotal)
	}
	return all, warm
}

// layers are the attribution targets, reported as cpu.<layer>.
var layers = []string{"program", "runtime", "engine", "sync", "machine", "workloads", "serve", "runcache", "other"}

// layerPackages maps the repository's packages to layers; anything else
// (the root syncron package, the standard library's HTTP and JSON, this
// benchmark) is "other".
var layerPackages = map[string]string{
	"syncron/internal/program":   "program",
	"syncron/internal/sim":       "engine",
	"syncron/internal/core":      "sync",
	"syncron/internal/baselines": "sync",
	"syncron/internal/coherlock": "sync",
	"syncron/internal/network":   "machine",
	"syncron/internal/mem":       "machine",
	"syncron/internal/cache":     "machine",
	"syncron/internal/coherence": "machine",
	"syncron/internal/arch":      "machine",
	"syncron/internal/serve":     "serve",
	"syncron/internal/runcache":  "runcache",
}

// layerOf attributes one stack (leaf first) to a layer. Symbols without a
// package qualifier (gcWriteBarrier, gogo, memeqbody) are the runtime's
// assembly.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		pkg := packageOf(fn)
		if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || !strings.Contains(fn, ".") {
			continue
		}
		if l, ok := layerPackages[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "syncron/internal/workloads/") {
			return "workloads"
		}
		return "other"
	}
	return "runtime"
}

// packageOf extracts the import path from a symbol name such as
// "syncron/internal/sim.(*Engine).Run" or "runtime.mcall".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// sample is one decoded profile sample: its count, its stack as function
// names (leaf first, inlined frames expanded) and its string labels.
type sample struct {
	count  int64
	funcs  []string
	labels map[string]string
}

// parseProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes, keeping only what attribution needs. The standard
// library has no reader for it, and the module takes no dependencies.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		value  int64
		labels [][2]int64
	}
	var (
		strs      []string
		samples   []rawSample
		funcNames = map[uint64]int64{}    // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			var values []int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(wire, v, b, func(x uint64) { values = append(values, int64(x)) })
				case 3:
					var kv [2]int64
					err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			if len(values) > 0 {
				s.value = values[0]
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, len(samples))
	for i, s := range samples {
		out[i] = sample{count: s.value, labels: map[string]string{}}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				out[i].funcs = append(out[i].funcs, str(funcNames[fn]))
			}
		}
		for _, kv := range s.labels {
			out[i].labels[str(kv[0])] = str(kv[1])
		}
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's number,
// wire type and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint calls f for a repeated varint field in either encoding: one
// value per field, or packed into one length-delimited field.
func eachVarint(wire int, v uint64, b []byte, f func(uint64)) error {
	if wire != 2 {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		b = b[n:]
	}
	return nil
}
