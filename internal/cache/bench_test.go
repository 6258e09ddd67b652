package cache

import "testing"

// BenchmarkCacheAccess measures Access, which runs once per cacheable memory
// operation of every simulated core. "hit" cycles through 64 lines that fit
// in the cache, so nearly every access hits; "miss-writeback" strides over
// far more lines than the cache holds and writes one access in two, so
// nearly every access misses and many evict a dirty line.
func BenchmarkCacheAccess(b *testing.B) {
	for _, bc := range []struct {
		name   string
		lines  uint64 // distinct lines the loop cycles through; a power of two
		stride uint64 // line stride between consecutive accesses
	}{
		{"hit", 64, 1},
		{"miss-writeback", 1 << 16, 97},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(DefaultConfig())
			c.Access(0, false)
			b.ReportAllocs()
			b.ResetTimer()
			line := uint64(0)
			for i := 0; i < b.N; i++ {
				line = (line + bc.stride) & (bc.lines - 1) // a mask: a division would dominate
				c.Access(line*LineSize, i&1 == 0)
			}
		})
	}
}
