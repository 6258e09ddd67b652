package coherlock_test

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/coherlock"
	"syncron/internal/program"
)

// benchLock drives a contended lock under one coherence-lock algorithm on a
// units x coresPerUnit machine — the heaviest scheduler of cancel-free
// events among the backends (every release invalidates and reschedules
// every spinner).
func benchLock(b *testing.B, alg coherlock.Algorithm, units, coresPerUnit int) {
	const rounds = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		back := coherlock.New(alg)
		m := arch.NewMachine(arch.Config{Units: units, CoresPerUnit: coresPerUnit})
		m.Backend = back
		r := program.NewRunner(m)
		lock := m.Alloc(0, 64)
		for c := 0; c < units*coresPerUnit; c++ {
			r.AddAt(c, func(ctx *program.Ctx) {
				for k := 0; k < rounds; k++ {
					ctx.Lock(lock)
					ctx.Unlock(lock)
					ctx.Compute(60)
				}
			})
		}
		r.Run()
	}
}

func BenchmarkLockMESI(b *testing.B) { benchLock(b, coherlock.MESILock, 2, 4) }
func BenchmarkLockTTAS(b *testing.B) { benchLock(b, coherlock.TTAS, 2, 4) }
func BenchmarkLockHTL(b *testing.B)  { benchLock(b, coherlock.HTL, 2, 4) }

// The 60-core variants use the 4 x 15 machine of the benchmark's sync-prims
// workload, where N sharers make every release cost N invalidations.
func BenchmarkLockMESI60(b *testing.B) { benchLock(b, coherlock.MESILock, 4, 15) }
func BenchmarkLockTTAS60(b *testing.B) { benchLock(b, coherlock.TTAS, 4, 15) }
func BenchmarkLockHTL60(b *testing.B)  { benchLock(b, coherlock.HTL, 4, 15) }
