package bench

import (
	"testing"

	"dialegg/internal/memo"
)

// BenchmarkCacheHit measures a memo cache hit in process, as egg-serve
// answers one: canonicalize the module, key it with its rule sources and
// look the key up, on each paper5 program and the 20-matmul chain.
func BenchmarkCacheHit(b *testing.B) {
	for _, in := range append(paper5HitInputs(), mm20HitInput()) {
		b.Run(in.name, func(b *testing.B) {
			cache := memo.NewCache(1 << 20)
			cache.Add(hitKey(b, in), []byte(in.name))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := cache.Get(hitKey(b, in)); !ok {
					b.Fatalf("%s: cache miss", in.name)
				}
			}
		})
	}
}
