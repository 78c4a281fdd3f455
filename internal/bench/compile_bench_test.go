package bench

import (
	"runtime"
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/mlir"
)

// compileSink keeps the printed modules live, so the compiler cannot drop
// the work that produces them.
var compileSink string

// BenchmarkCompile times whole compiles in process, as the repository
// benchmark's paper5 and mm20 workloads run them: parse,
// dialegg.OptimizeModule with default options, canonical print. paper5
// compiles the five section 8.2 programs round robin, one per iteration.
// Like the benchmark, it starts each compile after a forced, untimed
// garbage collection, so the collector's share of a compile (marking,
// assists, write barriers) is the one the benchmark sees. With
// -cpuprofile or -memprofile it profiles every layer of a compile, for
// example
//
//	go test -run '^$' -bench 'Compile/20MM' -benchtime 200x -cpu 1 \
//		-cpuprofile cpu.pprof -o bench.test ./internal/bench/
func BenchmarkCompile(b *testing.B) {
	for _, w := range []struct {
		name   string
		inputs []hitInput
	}{
		{"paper5", paper5HitInputs()},
		{"20MM", []hitInput{mm20HitInput()}},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := w.inputs[i%len(w.inputs)]
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				reg := dialects.NewRegistry()
				m, err := mlir.ParseModule(in.src, reg)
				if err != nil {
					b.Fatalf("%s: %v", in.name, err)
				}
				if _, err := dialegg.NewOptimizer(dialegg.Options{RuleSources: in.rules}).OptimizeModule(m); err != nil {
					b.Fatalf("%s: %v", in.name, err)
				}
				compileSink = mlir.PrintModuleCanonical(m, reg)
			}
		})
	}
}
