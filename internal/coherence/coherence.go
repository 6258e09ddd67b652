// Package coherence models a directory-based MESI protocol layered over the
// NDP interconnect. The paper uses it for motivation only (§2.2): a
// coherence-based lock (mesi-lock) on the simulated NDP system (Figure 2)
// and TTAS / Hierarchical Ticket Lock throughput on a NUMA CPU (Table 1).
// NDP systems do not support hardware coherence; this package exists to
// reproduce why.
package coherence

import (
	"math/bits"

	"syncron/internal/arch"
	"syncron/internal/network"
	"syncron/internal/sim"
)

// lineState is the directory's view of one cache line.
type lineState struct {
	owner   int      // core with M/E copy, -1 if none
	sharers []uint64 // bitset of cores with S copies, indexed by core id
	nShared int      // number of bits set in sharers
}

func (l *lineState) shares(core int) bool { return l.sharers[core/64]&(1<<(core%64)) != 0 }

func (l *lineState) addSharer(core int) {
	if !l.shares(core) {
		l.sharers[core/64] |= 1 << (core % 64)
		l.nShared++
	}
}

// Space is a coherent address space shared by the cores of a machine. It
// tracks which core caches which line and charges directory transactions,
// invalidations, and cache-to-cache transfers on the machine's network.
type Space struct {
	m     *arch.Machine
	lines map[uint64]*lineState

	// lastLine/last memoize the most recent line lookup: one lock release
	// touches the same line once per sharer in a row.
	lastLine uint64
	last     *lineState

	// Per-core routing and latencies derived once from the machine, whose
	// shape and clock are fixed: unit[c] and port[c] are core c's NDP unit
	// and crossbar port, hit the L1 hit latency, dirLookup the directory
	// lookup latency.
	unit      []int
	port      []int
	hit       sim.Time
	dirLookup sim.Time

	// Stats.
	Invalidations sim.Counter
	Transfers     sim.Counter // cache-to-cache forwards
	DirMisses     sim.Counter // memory fetches
}

// NewSpace returns a coherent space over machine m.
func NewSpace(m *arch.Machine) *Space {
	cores := m.NumCores()
	s := &Space{
		m:         m,
		lines:     make(map[uint64]*lineState),
		unit:      make([]int, cores),
		port:      make([]int, cores),
		hit:       m.CoreClock.Cycles(4),
		dirLookup: m.CoreClock.Cycles(6),
	}
	for c := range s.unit {
		s.unit[c] = m.UnitOf(c)
		s.port[c] = network.PortCore(m.LocalOf(c))
	}
	return s
}

// AccessKind is the coherence request type.
type AccessKind int

// Coherence request kinds.
const (
	Load AccessKind = iota
	Store
	RMW // atomic read-modify-write (needs exclusive ownership)
)

// line returns addr's directory entry, creating it on first touch.
func (s *Space) line(addr uint64) *lineState {
	key := addr / 64
	if s.last != nil && s.lastLine == key {
		return s.last
	}
	l, ok := s.lines[key]
	if !ok {
		l = &lineState{owner: -1, sharers: make([]uint64, (s.m.NumCores()+63)/64)}
		s.lines[key] = l
	}
	s.lastLine, s.last = key, l
	return l
}

// Access performs a coherent access by core at time t and returns the
// completion time. Latency composition:
//   - hit in the right state: L1 hit latency;
//   - otherwise a directory transaction at the line's home unit, possibly
//     forwarding from the current owner and invalidating sharers.
func (s *Space) Access(t sim.Time, core int, addr uint64, kind AccessKind) sim.Time {
	m := s.m
	l := s.line(addr)
	hit := s.hit
	exclusive := kind != Load

	// Hit check.
	if l.owner == core {
		return t + hit
	}
	if !exclusive && l.shares(core) {
		return t + hit
	}

	// Directory transaction at the home unit.
	unit := s.unit[core]
	home := m.HomeUnit(addr)
	dirArr := m.Net.Transfer(t+hit, unit, home, network.PortMemory, arch.MemReqBytes)
	dataAt := dirArr + s.dirLookup

	if l.owner >= 0 && l.owner != core {
		// Forward from the owner's cache (cache-to-cache transfer), downgrading
		// or invalidating the owner.
		s.Transfers.Inc()
		oUnit := s.unit[l.owner]
		fwd := m.Net.Transfer(dataAt, home, oUnit, s.port[l.owner], arch.MemReqBytes)
		fwd += hit // owner L1 access
		dataAt = m.Net.Transfer(fwd, oUnit, home, network.PortMemory, arch.MemDataBytes)
		if exclusive {
			l.owner = -1
		} else {
			l.addSharer(l.owner)
			l.owner = -1
		}
	} else if l.owner < 0 && l.nShared == 0 {
		// Clean miss: fetch from memory.
		s.DirMisses.Inc()
		dataAt = m.Mems[home].Read(dataAt, addr)
	}

	if exclusive && l.nShared > 0 {
		// Invalidate all sharers in ascending core id, so the contending
		// network transfers are issued in a fixed order; completion waits for
		// the slowest ack.
		ackAt := dataAt
		for w, word := range l.sharers {
			for ; word != 0; word &= word - 1 {
				sh := w*64 + bits.TrailingZeros64(word)
				if sh == core {
					continue
				}
				s.Invalidations.Inc()
				su := s.unit[sh]
				inv := m.Net.Transfer(dataAt, home, su, s.port[sh], arch.MemReqBytes)
				ack := m.Net.Transfer(inv, su, home, network.PortMemory, arch.MemReqBytes)
				if ack > ackAt {
					ackAt = ack
				}
			}
			l.sharers[w] = 0
		}
		dataAt = ackAt
		l.nShared = 0
	}

	// Data back to the requester.
	done := m.Net.Transfer(dataAt, home, unit, s.port[core], arch.MemDataBytes)
	if exclusive {
		l.owner = core
	} else {
		l.addSharer(core)
	}
	return done
}

// SharersOf reports how many cores cache addr (tests). It is read-only: a
// line no core has touched reports 0 and gets no directory entry.
func (s *Space) SharersOf(addr uint64) int {
	l, ok := s.lines[addr/64]
	if !ok {
		return 0
	}
	n := l.nShared
	if l.owner >= 0 {
		n++
	}
	return n
}
