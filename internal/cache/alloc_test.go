package cache

import "testing"

// An untouched cache answers every query as all ways invalid without
// allocating its ways: a machine builds one L1 per core, and many runs
// touch none of them.
func TestUntouchedCacheQueriesAllocFree(t *testing.T) {
	c := New(DefaultConfig())
	addr := uint64(0)
	if avg := testing.AllocsPerRun(100, func() {
		if r := c.Probe(addr, addr%3 == 0); r.Hit || r.Writeback {
			t.Fatalf("probe of an untouched cache = %+v", r)
		}
		if c.Contains(addr) {
			t.Fatal("untouched cache contains a line")
		}
		if n := c.Flush(); n != 0 {
			t.Fatalf("flush of an untouched cache dropped %d dirty lines", n)
		}
		if s := c.Stats; s.Hits.Value()+s.Misses.Value()+s.Writebacks.Value() != 0 {
			t.Fatal("untouched cache has statistics")
		}
		addr += 7 * LineSize
	}); avg != 0 {
		t.Fatalf("queries on an untouched cache allocate %.2f per call", avg)
	}
	if c.ways != nil {
		t.Fatal("queries allocated the ways")
	}
}

// The first Access allocates the ways, once; later ones allocate nothing.
func TestFirstAccessAllocatesOnce(t *testing.T) {
	const runs = 20
	for _, cfg := range goldenGeometries {
		// AllocsPerRun calls f runs+1 times; each call gets a fresh cache.
		fresh := make([]*Cache, runs+1)
		for i := range fresh {
			fresh[i] = New(cfg)
		}
		i := 0
		if avg := testing.AllocsPerRun(runs, func() {
			c := fresh[i]
			i++
			c.Access(0x40, true)
			c.Access(0x80, false)
		}); avg != 1 {
			t.Fatalf("%+v: the first two Accesses allocate %.2f times, want 1", cfg, avg)
		}
	}
}

// Access runs once per cacheable memory operation of every simulated core,
// so it must not allocate in steady state, on hits, misses or writebacks.
func TestAccessSteadyStateAllocFree(t *testing.T) {
	c := New(DefaultConfig())
	c.Access(0, false)
	addr := uint64(0)
	if avg := testing.AllocsPerRun(2000, func() {
		c.Access(addr, addr%3 == 0)
		addr += 97 * LineSize
	}); avg != 0 {
		t.Fatalf("Access allocates %.2f per call in steady state", avg)
	}
	if c.Stats.Writebacks.Value() == 0 {
		t.Fatal("the loop produced no writebacks")
	}
}
