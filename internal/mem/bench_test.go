package mem

import (
	"testing"

	"syncron/internal/sim"
)

// BenchmarkMemAccess measures one DRAM access under each timing model: the
// flat model's channel occupancy and the bank model's row-buffer scheduler.
// Addresses stride across channels, banks and rows, and one access in three
// is a write.
func BenchmarkMemAccess(b *testing.B) {
	for _, model := range Models() {
		b.Run(string(model), func(b *testing.B) {
			m := NewModel(sim.NewEngine(), 0, TimingFor(HBM), model)
			b.ReportAllocs()
			b.ResetTimer()
			now := sim.Time(0)
			addr := uint64(0)
			for i := 0; i < b.N; i++ {
				m.Access(now, addr, i%3 == 0)
				now += sim.Nanosecond
				addr += 7 * Line
			}
		})
	}
}
