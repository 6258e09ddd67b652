package graphs

import (
	"fmt"

	"syncron/internal/arch"
	"syncron/internal/program"
)

// Apps lists the six applications in Table-6 order.
func Apps() []string { return []string{"bfs", "cc", "sssp", "pr", "tf", "tc"} }

// UsesBarriers reports whether the app synchronizes with barriers (Table 6:
// tf uses only locks).
func UsesBarriers(app string) bool { return app != "tf" }

// RunConfig parameterizes one graph-application run.
type RunConfig struct {
	App   string
	Graph *Graph
	Part  Partition // vertex -> NDP unit placement
	Iters int       // safety cap on propagation rounds (default 64)
}

// Layout is the simulated-memory placement of a graph: per-vertex output
// data and lock lines in the vertex's unit (shared read-write), adjacency
// lists in the vertex's unit (shared read-only, cacheable).
type Layout struct {
	G    *Graph
	Part Partition
	data []uint64
	lock []uint64
	adj  []uint64
}

// NewLayout places g on machine m according to part.
func NewLayout(m *arch.Machine, g *Graph, part Partition) *Layout {
	ly := &Layout{G: g, Part: part,
		data: make([]uint64, g.N), lock: make([]uint64, g.N), adj: make([]uint64, g.N)}
	for v := 0; v < g.N; v++ {
		u := part[v]
		ly.data[v] = m.AllocShared(u, 64)
		// Lock lines are only touched through the sync backend, so they live
		// in the cacheable arena (servers cache them; SynCron uses only the
		// address for identity and home-unit selection).
		ly.lock[v] = m.Alloc(u, 64)
		sz := uint64(len(g.Adj[v]) * 8)
		if sz == 0 {
			sz = 8
		}
		ly.adj[v] = m.Alloc(u, sz)
	}
	return ly
}

// ReadAdj models reading v's adjacency list (8 neighbors per line).
func (ly *Layout) ReadAdj(ctx *program.Ctx, v int) {
	lines := (len(ly.G.Adj[v]) + 7) / 8
	if lines == 0 {
		lines = 1
	}
	for i := 0; i < lines; i++ {
		ctx.Read(ly.adj[v] + uint64(i*64))
	}
}

// Mine returns the vertices assigned to global core id: each unit's vertices
// are split evenly among that unit's cores (the paper distributes vertex
// data equally across cores).
func (ly *Layout) Mine(m *arch.Machine, core int) []int {
	unit := m.UnitOf(core)
	local := m.LocalOf(core)
	per := m.Cfg.CoresPerUnit
	var mine []int
	i := 0
	for v := 0; v < ly.G.N; v++ {
		if ly.Part[v] != unit {
			continue
		}
		if i%per == local {
			mine = append(mine, v)
		}
		i++
	}
	return mine
}

// App is a runnable graph application; Check validates its output against a
// host-side reference.
type App struct {
	Build func(m *arch.Machine, r *program.Runner)
	Check func() error
}

// NewApp constructs the named application over layout ly.
func NewApp(m *arch.Machine, ly *Layout, cfg RunConfig) *App {
	if cfg.Iters == 0 {
		cfg.Iters = 64
	}
	switch cfg.App {
	case "bfs":
		return newBFS(m, ly, cfg)
	case "cc":
		return newCC(m, ly, cfg)
	case "sssp":
		return newSSSP(m, ly, cfg)
	case "pr":
		return newPR(m, ly, cfg)
	case "tf":
		return newTF(m, ly)
	case "tc":
		return newTC(m, ly)
	default:
		panic(fmt.Sprintf("graphs: unknown app %q", cfg.App))
	}
}

// roundDriver wraps the shared barrier-synchronized round structure: every
// core runs work(round) over its vertices, all cores barrier, core 0 decides
// whether another round is needed, all cores barrier again.
type roundDriver struct {
	m        *arch.Machine
	barrier  uint64
	cont     bool
	maxIters int
	prep     func(round int) bool // returns true to continue; run by core 0
}

func (rd *roundDriver) run(ctx *program.Ctx, n int, work func(round int)) {
	for round := 0; ; round++ {
		work(round)
		ctx.BarrierAcrossUnits(rd.barrier, n)
		if ctx.ID == 0 {
			rd.cont = rd.prep(round) && round+1 < rd.maxIters
		}
		ctx.BarrierAcrossUnits(rd.barrier, n)
		if !rd.cont {
			return
		}
	}
}

// Kernel instruction costs: address arithmetic, bounds checks, and loop
// overhead of the real compiled push kernels (in-order cores, 1 IPC). These
// set the synchronization-to-computation ratio the paper's Figure 12
// workloads exhibit.
const (
	vertexInstrs = 40
	edgeInstrs   = 24
)

// edgeWeight derives a deterministic positive weight for edge (u,v).
func edgeWeight(u, v int32) int32 {
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	h := uint64(a)*0x9e3779b9 ^ uint64(b)*0x85ebca6b
	return int32(h%15) + 1
}

// hub returns the highest-degree vertex, the natural BFS/SSSP source.
func hub(g *Graph) int {
	best := 0
	for v := 1; v < g.N; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// ---- BFS ----

func newBFS(m *arch.Machine, ly *Layout, cfg RunConfig) *App {
	g := ly.G
	src := hub(g)
	dist := make([]int32, g.N)
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	active := make([]bool, g.N)
	next := make([]bool, g.N)
	active[src] = true
	anyNext := false
	rd := &roundDriver{m: m, barrier: m.Alloc(0, 64), maxIters: cfg.Iters,
		prep: func(round int) bool {
			active, next = next, active
			for v := range next {
				next[v] = false
			}
			cont := anyNext
			anyNext = false
			return cont
		}}
	app := &App{}
	app.Build = func(m *arch.Machine, r *program.Runner) {
		n := m.NumCores()
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				mine := ly.Mine(m, ctx.ID)
				rd.run(ctx, n, func(round int) {
					for _, v := range mine {
						if !active[v] {
							continue
						}
						// A batch is open at the top of every neighbour: the
						// first neighbour's compute and unlocked read join
						// the vertex's own ops, each later pair is one
						// handoff. The check of dist, which other cores
						// write, follows End.
						ctx.Begin()
						ctx.Read(ly.data[v])
						ly.ReadAdj(ctx, v)
						ctx.Compute(vertexInstrs)
						for _, nb := range g.Adj[v] {
							ctx.Compute(edgeInstrs)
							ctx.Read(ly.data[nb]) // unlocked check first
							ctx.End()             // other cores write dist
							if dist[nb] < 0 {
								ctx.Lock(ly.lock[nb])
								if dist[nb] < 0 { // recheck under the lock
									dist[nb] = dist[v] + 1
									ctx.Write(ly.data[nb])
									next[nb] = true
									anyNext = true
								}
								ctx.Unlock(ly.lock[nb])
							}
							ctx.Begin()
						}
						ctx.End()
					}
				})
			}
		})
	}
	app.Check = func() error {
		ref := bfsRef(g, src)
		for v := range ref {
			if ref[v] != dist[v] {
				return fmt.Errorf("bfs: dist[%d] = %d, want %d", v, dist[v], ref[v])
			}
		}
		return nil
	}
	return app
}

func bfsRef(g *Graph, src int) []int32 {
	dist := make([]int32, g.N)
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range g.Adj[v] {
			if dist[nb] < 0 {
				dist[nb] = dist[v] + 1
				queue = append(queue, int(nb))
			}
		}
	}
	return dist
}

// ---- Connected Components (label propagation) ----

func newCC(m *arch.Machine, ly *Layout, cfg RunConfig) *App {
	g := ly.G
	label := make([]int32, g.N)
	for v := range label {
		label[v] = int32(v)
	}
	changed := false
	rd := &roundDriver{m: m, barrier: m.Alloc(0, 64), maxIters: cfg.Iters,
		prep: func(round int) bool {
			c := changed
			changed = false
			return c
		}}
	app := &App{}
	app.Build = func(m *arch.Machine, r *program.Runner) {
		n := m.NumCores()
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				mine := ly.Mine(m, ctx.ID)
				rd.run(ctx, n, func(round int) {
					for _, v := range mine {
						// Batched as in bfs: a batch is open at the top of
						// every neighbour.
						ctx.Begin()
						ctx.Read(ly.data[v])
						ly.ReadAdj(ctx, v)
						ctx.Compute(vertexInstrs)
						for _, nb := range g.Adj[v] {
							ctx.Compute(edgeInstrs)
							ctx.Read(ly.data[nb]) // unlocked check first
							ctx.End()             // other cores write label
							if label[v] < label[nb] {
								ctx.Lock(ly.lock[nb])
								if label[v] < label[nb] {
									label[nb] = label[v]
									ctx.Write(ly.data[nb])
									changed = true
								}
								ctx.Unlock(ly.lock[nb])
							}
							ctx.Begin()
						}
						ctx.End()
					}
				})
			}
		})
	}
	app.Check = func() error {
		for v := 0; v < g.N; v++ {
			for _, nb := range g.Adj[v] {
				if label[v] != label[nb] {
					return fmt.Errorf("cc: labels differ across edge (%d,%d): %d vs %d",
						v, nb, label[v], label[nb])
				}
			}
		}
		return nil
	}
	return app
}

// ---- SSSP (Bellman-Ford rounds) ----

func newSSSP(m *arch.Machine, ly *Layout, cfg RunConfig) *App {
	g := ly.G
	src := hub(g)
	const inf = int32(1 << 30)
	dist := make([]int32, g.N)
	for v := range dist {
		dist[v] = inf
	}
	dist[src] = 0
	changed := false
	rd := &roundDriver{m: m, barrier: m.Alloc(0, 64), maxIters: cfg.Iters,
		prep: func(round int) bool {
			c := changed
			changed = false
			return c
		}}
	app := &App{}
	app.Build = func(m *arch.Machine, r *program.Runner) {
		n := m.NumCores()
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				mine := ly.Mine(m, ctx.ID)
				rd.run(ctx, n, func(round int) {
					for _, v := range mine {
						if dist[v] >= inf {
							continue
						}
						// Only the vertex's own ops batch: each edge reads
						// dist[v], which other cores lower, between its
						// compute and its read.
						ctx.Begin()
						ctx.Read(ly.data[v])
						ly.ReadAdj(ctx, v)
						ctx.Compute(vertexInstrs)
						ctx.End()
						for _, nb := range g.Adj[v] {
							ctx.Compute(edgeInstrs)
							nd := dist[v] + edgeWeight(int32(v), nb)
							ctx.Read(ly.data[nb]) // unlocked check first
							if nd < dist[nb] {
								ctx.Lock(ly.lock[nb])
								if nd < dist[nb] {
									dist[nb] = nd
									ctx.Write(ly.data[nb])
									changed = true
								}
								ctx.Unlock(ly.lock[nb])
							}
						}
					}
				})
			}
		})
	}
	app.Check = func() error {
		// Triangle inequality at fixpoint: no edge can relax further.
		for v := 0; v < g.N; v++ {
			if dist[v] >= inf {
				continue
			}
			for _, nb := range g.Adj[v] {
				if dist[v]+edgeWeight(int32(v), nb) < dist[nb] {
					return fmt.Errorf("sssp: edge (%d,%d) still relaxable", v, nb)
				}
			}
		}
		if dist[src] != 0 {
			return fmt.Errorf("sssp: source distance %d", dist[src])
		}
		return nil
	}
	return app
}

// ---- PageRank (push) ----

func newPR(m *arch.Machine, ly *Layout, cfg RunConfig) *App {
	g := ly.G
	iters := 3
	rank := make([]float64, g.N)
	next := make([]float64, g.N)
	for v := range rank {
		rank[v] = 1.0 / float64(g.N)
	}
	rd := &roundDriver{m: m, barrier: m.Alloc(0, 64), maxIters: iters + 1,
		prep: func(round int) bool {
			rank, next = next, rank
			return round+1 < iters
		}}
	app := &App{}
	app.Build = func(m *arch.Machine, r *program.Runner) {
		n := m.NumCores()
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				mine := ly.Mine(m, ctx.ID)
				rd.run(ctx, n, func(round int) {
					// CRONO-style iteration: gather neighbor ranks (reads on
					// the shared read-write output array), then update the
					// own vertex's entry under its fine-grained lock. Each
					// vertex is one batch: rank is double-buffered, so no
					// core writes it before the round's barrier, and only
					// this core writes next[v].
					for _, v := range mine {
						ctx.Begin()
						ly.ReadAdj(ctx, v)
						ctx.Compute(vertexInstrs)
						sum := 0.0
						for _, nb := range g.Adj[v] {
							ctx.Compute(edgeInstrs)
							ctx.Read(ly.data[nb])
							if d := g.Degree(int(nb)); d > 0 {
								sum += rank[nb] / float64(d)
							}
						}
						ctx.Lock(ly.lock[v])
						next[v] = 0.15/float64(g.N) + 0.85*sum
						ctx.Write(ly.data[v])
						ctx.Unlock(ly.lock[v])
						ctx.End()
					}
				})
			}
		})
	}
	app.Check = func() error {
		var sum float64
		for _, r := range rank {
			if r < 0 {
				return fmt.Errorf("pr: negative rank %g", r)
			}
			sum += r
		}
		if sum < 0.5 || sum > 1.5 {
			return fmt.Errorf("pr: rank mass %g implausible", sum)
		}
		return nil
	}
	return app
}

// ---- Teenage Followers (locks only, no barriers) ----

func newTF(m *arch.Machine, ly *Layout) *App {
	g := ly.G
	age := func(v int) int { return int(uint64(v)*0x9e3779b9>>7) % 40 }
	count := make([]int32, g.N)
	app := &App{}
	app.Build = func(m *arch.Machine, r *program.Runner) {
		n := m.NumCores()
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				mine := ly.Mine(m, ctx.ID)
				// Count each vertex's teenage followers by scanning its
				// neighborhood, then update the shared counter under the
				// vertex's lock (lock-only app: no barriers, Table 6).
				// Each vertex is one batch: its host code reads only the
				// fixed graph, and only this core writes count[v].
				for _, v := range mine {
					ctx.Begin()
					ly.ReadAdj(ctx, v)
					ctx.Compute(vertexInstrs)
					teen := int32(0)
					for _, nb := range g.Adj[v] {
						ctx.Compute(edgeInstrs)
						ctx.Read(ly.data[nb])
						if age(int(nb)) < 20 {
							teen++
						}
					}
					if teen > 0 {
						ctx.Lock(ly.lock[v])
						count[v] += teen
						ctx.Write(ly.data[v])
						ctx.Unlock(ly.lock[v])
					}
					ctx.End()
				}
			}
		})
	}
	app.Check = func() error {
		for v := 0; v < g.N; v++ {
			want := int32(0)
			for _, nb := range g.Adj[v] {
				if age(int(nb)) < 20 {
					want++
				}
			}
			if count[v] != want {
				return fmt.Errorf("tf: count[%d] = %d, want %d", v, count[v], want)
			}
		}
		return nil
	}
	return app
}

// ---- Triangle Counting ----

func newTC(m *arch.Machine, ly *Layout) *App {
	g := ly.G
	count := make([]int64, g.N)
	bar := m.Alloc(0, 64)
	app := &App{}
	app.Build = func(m *arch.Machine, r *program.Runner) {
		n := m.NumCores()
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				mine := ly.Mine(m, ctx.ID)
				// Each vertex is one batch, as in tf.
				for _, v := range mine {
					ctx.Begin()
					ly.ReadAdj(ctx, v)
					ctx.Compute(vertexInstrs)
					tri := int64(0)
					for _, nb := range g.Adj[v] {
						if int(nb) <= v {
							continue
						}
						// Intersect adjacency lists; reads charged on the
						// neighbor's (possibly remote) list.
						ly.ReadAdj(ctx, int(nb))
						ctx.Compute(int64(min(len(g.Adj[v]), len(g.Adj[nb]))) * 2)
						tri += intersect(g.Adj[v], g.Adj[nb])
					}
					if tri > 0 {
						ctx.Lock(ly.lock[v])
						ctx.Read(ly.data[v])
						count[v] += tri
						ctx.Write(ly.data[v])
						ctx.Unlock(ly.lock[v])
					}
					ctx.End()
				}
				ctx.BarrierAcrossUnits(bar, n)
			}
		})
	}
	app.Check = func() error {
		for v, c := range count {
			if c < 0 {
				return fmt.Errorf("tc: negative count at %d", v)
			}
		}
		return nil
	}
	return app
}

// intersect counts common neighbors (both lists unsorted; use a map).
func intersect(a, b []int32) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	set := make(map[int32]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	var n int64
	for _, y := range b {
		if set[y] {
			n++
		}
	}
	return n
}
