// Package cache models the private L1 data cache of an NDP core: 16 KB,
// 2-way set-associative, 64 B lines, LRU replacement, 4-cycle hits (Table 5).
//
// Coherence is software-assisted (paper §2.1): only thread-private and
// shared read-only data may be cached; shared read-write data bypasses the
// cache entirely. The cacheability decision is made by the caller (the
// machine model knows the sharing class of each allocation).
//
// A cache keeps its ways in one flat, pointer-free array (set s holds ways
// s*Ways through s*Ways+Ways-1), 16 bytes per way, and allocates it on the
// first Access. A machine builds one L1 per core, and many runs never touch
// most of them (synchronization-only specs touch none), so an untouched
// cache costs only its header and gives the garbage collector nothing to
// scan. Probe, Contains, Flush and Stats answer an untouched cache as all
// ways invalid, without allocating.
package cache

import "syncron/internal/sim"

// LineSize is the cache line size in bytes.
const LineSize = 64

// Config describes an L1 cache geometry.
type Config struct {
	SizeBytes int
	Ways      int
	HitCycles int64 // latency of a hit in core cycles

	// Energy per access (Table 5: 23 pJ hit, 47 pJ miss).
	HitEnergyPJ  float64
	MissEnergyPJ float64
}

// DefaultConfig is the paper's L1D: 16 KB, 2-way, 4-cycle hit.
func DefaultConfig() Config {
	return Config{SizeBytes: 16 * 1024, Ways: 2, HitCycles: 4,
		HitEnergyPJ: 23, MissEnergyPJ: 47}
}

// Stats counts cache activity.
type Stats struct {
	Hits       sim.Counter
	Misses     sim.Counter
	Writebacks sim.Counter
	Bypasses   sim.Counter // uncacheable accesses
}

// EnergyPJ returns total cache energy under cfg.
func (s *Stats) EnergyPJ(cfg Config) float64 {
	return float64(s.Hits.Value())*cfg.HitEnergyPJ + float64(s.Misses.Value())*cfg.MissEnergyPJ
}

// way is one cache way: the line's tag, and meta = lastUse<<1 | dirty, where
// lastUse is the access tick that last touched the line. meta 0 means the
// way is invalid; every Access advances the tick to at least 1 before
// storing it, so a valid way never has meta 0. Valid ways hold distinct
// ticks, so comparing meta orders them by last use.
type way struct {
	tag  uint64
	meta uint64
}

func (w way) valid() bool { return w.meta != 0 }
func (w way) dirty() bool { return w.meta&1 != 0 }

// Cache is a single L1 cache instance.
type Cache struct {
	cfg   Config
	ways  []way // set s occupies ways[s*nways : (s+1)*nways]; nil until the first Access
	nsets uint64
	nways int
	ticks uint64
	Stats Stats
}

// New builds a cache from cfg. The ways are allocated on the first Access,
// so a cache that is never accessed costs only its header.
func New(cfg Config) *Cache {
	nsets := cfg.SizeBytes / (LineSize * cfg.Ways)
	if nsets <= 0 {
		nsets = 1
	}
	return &Cache{cfg: cfg, nsets: uint64(nsets), nways: cfg.Ways}
}

// locate splits addr into its set index and tag.
func (c *Cache) locate(addr uint64) (set, tag uint64) {
	line := addr / LineSize
	return line % c.nsets, line / c.nsets
}

// setWays returns the ways of set, or nil while the cache is untouched (an
// untouched cache reads as all ways invalid).
func (c *Cache) setWays(set uint64) []way {
	if c.ways == nil {
		return nil
	}
	base := int(set) * c.nways
	return c.ways[base : base+c.nways : base+c.nways]
}

// Result reports the outcome of a cache access.
type Result struct {
	Hit           bool
	Writeback     bool   // a dirty victim must be written back
	VictimAddr    uint64 // line address of the victim (valid if Writeback)
	LatencyCycles int64  // core cycles consumed inside the cache
}

// Access performs a load (write=false) or store (write=true) of the line
// containing addr, updating LRU and dirty state. On a miss the line is
// allocated (write-allocate) and the victim is reported.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.ticks++
	if c.ways == nil {
		c.ways = make([]way, int(c.nsets)*c.nways)
	}
	set, tag := c.locate(addr)
	meta := c.ticks << 1
	if write {
		meta |= 1
	}
	// The hit loop indexes the flat array directly: slicing out the set
	// first measurably slows the hit path, the cache's hottest.
	ways, base := c.ways, int(set)*c.nways
	for i := base; i < base+c.nways; i++ {
		if ways[i].valid() && ways[i].tag == tag {
			ways[i].meta = meta | ways[i].meta&1
			c.Stats.Hits.Inc()
			return Result{Hit: true, LatencyCycles: c.cfg.HitCycles}
		}
	}
	ws := ways[base : base+c.nways]
	victim := pickVictim(ws)
	res := c.missResult(ws, victim, set)
	if res.Writeback {
		c.Stats.Writebacks.Inc()
	}
	ws[victim] = way{tag: tag, meta: meta}
	c.Stats.Misses.Inc()
	return res
}

// lookup returns the index of the valid way in ws holding tag, or -1.
func lookup(ws []way, tag uint64) int {
	for i := range ws {
		if ws[i].valid() && ws[i].tag == tag {
			return i
		}
	}
	return -1
}

// pickVictim returns the way a miss in ws fills: the first invalid way
// after way 0, else way 0 if it is invalid, else the least recently used
// way. An untouched cache's nil set has nothing to evict and yields 0.
func pickVictim(ws []way) int {
	victim := 0
	for i := 1; i < len(ws); i++ {
		if !ws[i].valid() {
			return i
		}
		if ws[victim].valid() && ws[i].meta < ws[victim].meta {
			victim = i
		}
	}
	return victim
}

// missResult is the Result of a miss in set that evicts ws[victim].
func (c *Cache) missResult(ws []way, victim int, set uint64) Result {
	res := Result{LatencyCycles: c.cfg.HitCycles}
	if len(ws) > 0 && ws[victim].dirty() {
		res.Writeback = true
		res.VictimAddr = (ws[victim].tag*c.nsets + set) * LineSize
	}
	return res
}

// Probe predicts what Access(addr, write) would do — hit or miss, and on a
// miss whether a dirty victim would be written back and from which line
// address — without touching LRU, dirty bits, or statistics. As long as no
// other access intervenes, a subsequent Access returns exactly the predicted
// outcome; the program layer uses this to decide which simulation unit owns
// the rest of the access before performing it.
func (c *Cache) Probe(addr uint64, write bool) Result {
	set, tag := c.locate(addr)
	ws := c.setWays(set)
	if lookup(ws, tag) >= 0 {
		return Result{Hit: true, LatencyCycles: c.cfg.HitCycles}
	}
	return c.missResult(ws, pickVictim(ws), set)
}

// Bypass records an uncacheable access for statistics.
func (c *Cache) Bypass() { c.Stats.Bypasses.Inc() }

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(addr)
	return lookup(c.setWays(set), tag) >= 0
}

// Flush invalidates the whole cache, returning the number of dirty lines
// dropped (the model does not simulate flush traffic; used between phases).
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.ways {
		if c.ways[i].dirty() {
			dirty++
		}
		c.ways[i] = way{}
	}
	return dirty
}
