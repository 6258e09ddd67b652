package program

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// progBug is the value a test program panics with; Run's caller must get
// the same pointer back.
type progBug struct{ core int }

// runRecovered runs r and returns whatever Run panicked with (nil if it
// returned normally).
func runRecovered(r *Runner) (v any) {
	defer func() { v = recover() }()
	r.Run()
	return nil
}

// TestRunLeavesNoGoroutines checks that runs ending by deadlock, by the
// engine's MaxEvents cap or by a program's panic unwind every program that
// did not finish, on both dispatchers, and that a program's panic value
// reaches Run's caller unchanged. Each ending is also reached with the
// programs inside a batch (Ctx.Begin/End).
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{0, 2} {
		newR := func() *Runner {
			m := newM()
			m.Engine.SetParallelism(workers)
			r := NewRunner(m)
			r.TagCoreUnits = workers > 0
			return r
		}
		for round := 0; round < 20; round++ {
			// Deadlock: core 0 keeps the lock forever, the others queue on it.
			r := newR()
			lock := r.M.Alloc(0, 64)
			r.AddN(4, func(int) Program {
				return func(ctx *Ctx) { ctx.Lock(lock) }
			})
			if v, _ := runRecovered(r).(string); !strings.Contains(v, "deadlocked") {
				t.Fatalf("workers=%d: deadlocked run panicked with %q", workers, v)
			}

			// MaxEvents: the engine aborts while every core is mid-program.
			r = newR()
			r.M.Engine.MaxEvents = 50
			r.AddN(4, func(int) Program {
				return func(ctx *Ctx) {
					for k := 0; k < 1000; k++ {
						ctx.Compute(10)
					}
				}
			})
			if v, _ := runRecovered(r).(string); !strings.Contains(v, "MaxEvents") {
				t.Fatalf("workers=%d: capped run panicked with %q", workers, v)
			}

			// A program panics while the other cores are suspended.
			r = newR()
			bug := &progBug{core: 2}
			r.AddN(4, func(i int) Program {
				return func(ctx *Ctx) {
					for k := 0; k < 1000; k++ {
						if i == bug.core && k == 5 {
							panic(bug)
						}
						ctx.Compute(10)
					}
				}
			})
			if v := runRecovered(r); v != bug {
				t.Fatalf("workers=%d: panicking run re-raised %#v, want %#v", workers, v, bug)
			}

			// The same three endings inside batches: the deadlocked cores
			// queue on the lock midway through a batch, the cap and the
			// panic strike with batch operations still queued.
			r = newR()
			lock = r.M.Alloc(0, 64)
			r.AddN(4, func(int) Program {
				return func(ctx *Ctx) {
					ctx.Begin()
					ctx.Compute(10)
					ctx.Lock(lock)
					ctx.Compute(10)
					ctx.End()
				}
			})
			if v, _ := runRecovered(r).(string); !strings.Contains(v, "deadlocked") {
				t.Fatalf("workers=%d: deadlocked batched run panicked with %q", workers, v)
			}

			r = newR()
			r.M.Engine.MaxEvents = 50
			r.AddN(4, func(int) Program {
				return func(ctx *Ctx) {
					for k := 0; k < 100; k++ {
						ctx.Begin()
						for j := 0; j < 10; j++ {
							ctx.Compute(10)
						}
						ctx.End()
					}
				}
			})
			if v, _ := runRecovered(r).(string); !strings.Contains(v, "MaxEvents") {
				t.Fatalf("workers=%d: capped batched run panicked with %q", workers, v)
			}

			r = newR()
			r.AddN(4, func(i int) Program {
				return func(ctx *Ctx) {
					for k := 0; k < 1000; k++ {
						ctx.Begin()
						ctx.Compute(10)
						if i == bug.core && k == 5 {
							panic(bug)
						}
						ctx.Compute(10)
						ctx.End()
					}
				}
			})
			if v := runRecovered(r); v != bug {
				t.Fatalf("workers=%d: panicking batched run re-raised %#v, want %#v", workers, v, bug)
			}
		}
	}
	// Stopped coroutines exit synchronously; the poll only absorbs unrelated
	// runtime goroutines winding down.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("goroutines: %d after the runs, %d before", n, base)
	}
}
