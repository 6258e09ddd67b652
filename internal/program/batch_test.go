package program

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"syncron/internal/arch"
	"syncron/internal/sim"
	"syncron/internal/trace"
)

// batchRun is everything a run exposes: the makespan, the engine's event
// count, per-core stats, trace records, and the time each core saw after
// each of its batches.
type batchRun struct {
	makespan sim.Time
	executed uint64
	stats    []Stats
	records  []trace.Record
	seen     [][]sim.Time
}

// runMixed runs a program mixing compute (zero-length included), L1 hits,
// own-unit and cross-unit misses, locks and barriers on every core, with
// each round in one batch, followed by an empty one, when batched is set.
func runMixed(workers int, batched bool) batchRun {
	col := trace.NewCollector()
	m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2, Tracer: col})
	m.Backend = &instantBackend{}
	m.Engine.SetParallelism(workers)
	r := NewRunner(m)
	r.TagCoreUnits = workers > 0
	n := m.NumCores()
	lock, bar := m.Alloc(0, 64), m.Alloc(1, 64)
	shared := m.AllocShared(1, 64)
	own := make([]uint64, n)
	for c := range own {
		own[c] = m.Alloc(m.UnitOf(c), 64)
	}
	seen := make([][]sim.Time, n)
	r.AddN(n, func(i int) Program {
		return func(ctx *Ctx) {
			for k := 0; k < 12; k++ {
				if batched {
					ctx.Begin()
				}
				ctx.Compute(int64(5 + i))
				ctx.Read(own[i])
				ctx.Write(own[i])
				ctx.Read(own[(i+1)%n])
				ctx.Compute(0)
				ctx.Lock(lock)
				ctx.Read(shared)
				ctx.Write(shared)
				ctx.Unlock(lock)
				if k%4 == 3 {
					ctx.BarrierAcrossUnits(bar, n)
				}
				if batched {
					ctx.End()
					ctx.Begin() // an empty batch hands nothing over
					ctx.Compute(0)
					ctx.End()
				}
				seen[i] = append(seen[i], ctx.Now())
			}
		}
	})
	out := batchRun{makespan: r.Run(), executed: m.Engine.Executed, stats: r.Stats(), seen: seen}
	m.FlushTrace()
	out.records = append([]trace.Record(nil), col.Records()...)
	return out
}

// TestBatchMatchesUnbatched checks that batching changes nothing a run
// exposes, on the serial and the parallel dispatcher.
func TestBatchMatchesUnbatched(t *testing.T) {
	for _, workers := range []int{0, 2} {
		plain, batched := runMixed(workers, false), runMixed(workers, true)
		if len(plain.records) == 0 {
			t.Fatalf("workers=%d: the run traced nothing", workers)
		}
		if !reflect.DeepEqual(plain, batched) {
			t.Errorf("workers=%d: batched run differs:\nmakespan %v vs %v, events %d vs %d\nstats %+v\nvs    %+v\nseen %v\nvs   %v",
				workers, batched.makespan, plain.makespan, batched.executed, plain.executed,
				batched.stats, plain.stats, batched.seen, plain.seen)
		}
	}
}

// runOne runs a single program on a fresh machine and returns what Run
// panicked with (nil if it returned normally).
func runOne(p Program) any {
	r := NewRunner(newM())
	r.Add(p)
	return runRecovered(r)
}

// TestBatchMisuse checks that every misuse of a batch fails loudly instead
// of changing or dropping operations.
func TestBatchMisuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog Program
		want string
	}{
		{"Now inside a batch", func(ctx *Ctx) {
			ctx.Begin()
			ctx.Compute(10)
			ctx.Now()
		}, "Now inside a batch"},
		{"return with a batch open", func(ctx *Ctx) {
			ctx.Begin()
			ctx.Compute(10)
			ctx.Compute(10)
			ctx.Compute(10)
		}, "batch of 3 operations still open"},
		{"nested Begin", func(ctx *Ctx) {
			ctx.Begin()
			ctx.Begin()
		}, "Begin inside an open batch"},
		{"End without Begin", func(ctx *Ctx) { ctx.End() }, "End without Begin"},
	} {
		v := runOne(tc.prog)
		if s := fmt.Sprint(v); !strings.Contains(s, tc.want) {
			t.Errorf("%s: Run panicked with %q, want it to mention %q", tc.name, s, tc.want)
		}
	}
}

// TestSetBatches checks that with batching off Begin and End do nothing:
// Now is legal between them and a missing End is not an error.
func TestSetBatches(t *testing.T) {
	defer SetBatches(SetBatches(false))
	var at sim.Time
	if v := runOne(func(ctx *Ctx) {
		ctx.Begin()
		ctx.Compute(100)
		at = ctx.Now()
	}); v != nil {
		t.Fatal(v)
	}
	if want := newM().CoreClock.Cycles(100); at != want {
		t.Fatalf("Now = %v, want %v", at, want)
	}
}

// TestBatchOpsAllocFree pins the batch hot path: once a core's buffer has
// grown to the batch size, queueing and modelling operations allocates
// nothing, so a run's allocations do not grow with the number of batches.
func TestBatchOpsAllocFree(t *testing.T) {
	run := func(batches int) float64 {
		return testing.AllocsPerRun(5, func() {
			m := arch.NewMachine(arch.Config{Units: 1, CoresPerUnit: 1})
			m.Backend = &instantBackend{}
			r := NewRunner(m)
			r.Add(func(ctx *Ctx) {
				for k := 0; k < batches; k++ {
					ctx.Begin()
					for j := 0; j < 8; j++ {
						ctx.Compute(10)
					}
					ctx.End()
				}
			})
			r.Run()
		})
	}
	if small, large := run(4), run(400); large > small {
		t.Fatalf("allocations grow with batches: %v for 4 batches, %v for 400", small, large)
	}
}
