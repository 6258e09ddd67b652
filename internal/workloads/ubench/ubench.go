// Package ubench implements the Figure-10 microbenchmarks: each of the four
// synchronization primitives exercised by 60 cores that repeatedly reach a
// single synchronization variable, with a configurable instruction interval
// between synchronization points.
package ubench

import (
	"fmt"

	"syncron/internal/arch"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// Primitive selects the microbenchmark.
type Primitive string

// The four Figure-10 primitives.
const (
	Lock      Primitive = "lock"
	Barrier   Primitive = "barrier"
	Semaphore Primitive = "semaphore"
	CondVar   Primitive = "condvar"
)

// Primitives lists all four in figure order.
func Primitives() []Primitive { return []Primitive{Lock, Barrier, Semaphore, CondVar} }

// Config parameterizes one run.
type Config struct {
	Primitive Primitive
	Interval  int64 // instructions between synchronization points
	Rounds    int   // synchronization points per core
}

// Run executes the microbenchmark on machine m and returns the makespan.
func Run(m *arch.Machine, cfg Config) sim.Time {
	r := program.NewRunner(m)
	Build(m, r, cfg)
	return r.Run()
}

// Build registers the benchmark's programs on runner r.
func Build(m *arch.Machine, r *program.Runner, cfg Config) {
	n := m.NumCores()
	if cfg.Rounds == 0 {
		cfg.Rounds = 50
	}
	v := m.Alloc(0, 64)
	switch cfg.Primitive {
	case Lock:
		// Empty critical section; interval of work between acquisitions.
		// No host code reads shared state, so each round is one batch.
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < cfg.Rounds; k++ {
					ctx.Begin()
					ctx.Lock(v)
					ctx.Unlock(v)
					ctx.Compute(cfg.Interval)
					ctx.End()
				}
			}
		})
	case Barrier:
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < cfg.Rounds; k++ {
					ctx.Begin()
					ctx.Compute(cfg.Interval)
					ctx.BarrierAcrossUnits(v, n)
					ctx.End()
				}
			}
		})
	case Semaphore:
		// Half the cores wait, half post (paper §6.1.1).
		half := n / 2
		r.AddN(n, func(i int) program.Program {
			if i < half {
				return func(ctx *program.Ctx) {
					for k := 0; k < cfg.Rounds; k++ {
						ctx.Begin()
						ctx.SemWait(v, 0)
						ctx.Compute(cfg.Interval)
						ctx.End()
					}
				}
			}
			return func(ctx *program.Ctx) {
				for k := 0; k < cfg.Rounds; k++ {
					ctx.Begin()
					ctx.SemPost(v)
					ctx.Compute(cfg.Interval)
					ctx.End()
				}
			}
		})
		// Posts must cover waits exactly: n-half posters x rounds >= half x
		// rounds requires half <= n-half, which holds; surplus posts are
		// absorbed by the count.
	case CondVar:
		// Half wait on the condition, half signal; a token counter gives
		// Mesa-safe semantics (no lost wakeups). The token counter is shared,
		// so each round's unlock, compute and next lock form one batch that
		// ends once the lock is held again.
		lock := m.Alloc(0, 64)
		half := n / 2
		tokens := 0
		r.AddN(n, func(i int) program.Program {
			if i < half {
				return func(ctx *program.Ctx) {
					ctx.Begin()
					for k := 0; k < cfg.Rounds; k++ {
						ctx.Lock(lock)
						ctx.End()
						for tokens == 0 {
							ctx.CondWait(v, lock)
						}
						tokens--
						ctx.Begin()
						ctx.Unlock(lock)
						ctx.Compute(cfg.Interval)
					}
					ctx.End()
				}
			}
			return func(ctx *program.Ctx) {
				ctx.Begin()
				for k := 0; k < cfg.Rounds; k++ {
					ctx.Lock(lock)
					ctx.End()
					tokens++
					ctx.Begin()
					ctx.CondSignal(v, lock)
					ctx.Unlock(lock)
					ctx.Compute(cfg.Interval)
				}
				ctx.End()
			}
		})
	default:
		panic(fmt.Sprintf("ubench: unknown primitive %q", cfg.Primitive))
	}
}
