package cache

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenGeometries are the cache shapes the access-trace golden covers: the
// paper's L1D, a smaller 4-way cache and a direct-mapped one.
var goldenGeometries = []Config{
	DefaultConfig(),
	{SizeBytes: 4 * 1024, Ways: 4, HitCycles: 3, HitEnergyPJ: 11, MissEnergyPJ: 29},
	{SizeBytes: 2 * 1024, Ways: 1, HitCycles: 2, HitEnergyPJ: 5, MissEnergyPJ: 9},
}

// goldenTrace drives a fresh cache of geometry cfg through a deterministic
// pseudo-random mix of Access (A), Probe (P), Contains (C) and Flush (F),
// and returns one line per call with the address, r or w, and every field
// of its result. The first calls probe, query and flush the untouched
// cache. Addresses mostly fall on a few tags per set, half of them on a hot
// group of eight sets, so hits, LRU evictions and dirty writebacks all
// occur; one in eight is drawn from a wide range. About one call in 400
// flushes.
func goldenTrace(cfg Config) string {
	c := New(cfg)
	nsets := uint64(cfg.SizeBytes / (LineSize * cfg.Ways))
	rng := uint64(0x2545f4914f6cdd1d)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	addr := func() uint64 {
		if next(8) == 0 {
			return next(1 << 32)
		}
		tag := next(uint64(cfg.Ways) + 2)
		set := next(nsets)
		if next(2) == 0 {
			set %= 8 // a hot group of sets sees most of the reuse
		}
		return (tag*nsets+set)*LineSize + next(LineSize)
	}
	// res prints every Result field: H or M, the latency, and, when a
	// victim is reported, Writeback and VictimAddr.
	res := func(r Result) string {
		s := "M"
		if r.Hit {
			s = "H"
		}
		s += fmt.Sprint(" ", r.LatencyCycles)
		if r.Writeback || r.VictimAddr != 0 {
			s += fmt.Sprintf(" wb=%t %x", r.Writeback, r.VictimAddr)
		}
		return s
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== size=%d ways=%d sets=%d\n", cfg.SizeBytes, cfg.Ways, nsets)
	for _, a := range []uint64{0, 0x1040, 1 << 31} {
		fmt.Fprintf(&b, "P %x r %s\n", a, res(c.Probe(a, false)))
		fmt.Fprintf(&b, "P %x w %s\n", a, res(c.Probe(a, true)))
		fmt.Fprintf(&b, "C %x %t\n", a, c.Contains(a))
	}
	fmt.Fprintf(&b, "F %d\n", c.Flush())
	for i := 0; i < 2500; i++ {
		a := addr()
		write := next(3) == 0
		rw := "r"
		if write {
			rw = "w"
		}
		switch op := next(100); {
		case op < 60:
			fmt.Fprintf(&b, "A %x %s %s\n", a, rw, res(c.Access(a, write)))
		case op < 85:
			fmt.Fprintf(&b, "P %x %s %s\n", a, rw, res(c.Probe(a, write)))
		case op < 99 || next(4) != 0:
			fmt.Fprintf(&b, "C %x %t\n", a, c.Contains(a))
		default:
			fmt.Fprintf(&b, "F %d\n", c.Flush())
		}
	}
	s := &c.Stats
	fmt.Fprintf(&b, "stats hits=%d misses=%d writebacks=%d bypasses=%d energy=%g\n",
		s.Hits.Value(), s.Misses.Value(), s.Writebacks.Value(), s.Bypasses.Value(), s.EnergyPJ(cfg))
	return b.String()
}

const goldenPath = "testdata/access_trace.golden"

// TestAccessTraceGolden locks the L1 model: hit or miss, LRU victim choice,
// dirty bits, writeback victims and statistics for every call in
// goldenTrace, on each of goldenGeometries. Regenerate with UPDATE_GOLDEN=1
// only for a deliberate, documented change to the cache model.
func TestAccessTraceGolden(t *testing.T) {
	var b strings.Builder
	for _, cfg := range goldenGeometries {
		b.WriteString(goldenTrace(cfg))
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden updated")
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("access trace deviates from %s at line %d: got %q", goldenPath, i+1, gl[i])
			}
		}
		t.Fatalf("access trace deviates from %s (len got %d, want %d)", goldenPath, len(got), len(want))
	}
}
