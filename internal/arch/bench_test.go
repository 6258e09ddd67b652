package arch

import "testing"

// BenchmarkNewMachine measures building the default 4x15 machine: engine,
// network, memory stacks and 60 L1 caches. Every run pays it once, so it is
// the fixed set-up cost of small specs and of the serve daemon's cold
// requests.
func BenchmarkNewMachine(b *testing.B) {
	cfg := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewMachine(cfg)
	}
}
