package bench

import (
	"fmt"
	"testing"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

// BenchmarkProfileOverhead prices the saturation profiler's two
// configurations on the chain16 and Poly workloads: off (the default —
// no premise counters, no blame) and on (what -profile sets: premise
// counters and extraction blame). Per-rule metrics are on in both modes,
// as in every run, and the matcher counts each step's rows in both; on
// adds the serial fold of those counts and the blame walk. The off/on
// ratio is what a user pays for a profile. Results are recorded in
// EXPERIMENTS.md.
func BenchmarkProfileOverhead(b *testing.B) {
	modes := []struct {
		name string
		on   bool
	}{
		{"off", false},
		{"on", true},
	}
	workloads := []struct {
		name     string
		source   string
		ruleSrcs []string
	}{
		{"chain16", MatmulChainSource("mm16", NMMDims(16)), rules.MatmulChain()},
		{"Poly", PolySource(64), rules.Poly()},
	}
	for _, w := range workloads {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%s", w.name, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					reg := dialects.NewRegistry()
					m, err := mlir.ParseModule(w.source, reg)
					if err != nil {
						b.Fatal(err)
					}
					opts := dialegg.Options{
						RuleSources: w.ruleSrcs,
						RunConfig: egraph.RunConfig{
							NodeLimit:   2_000_000,
							MatchLimit:  2_000_000,
							TimeLimit:   240 * time.Second,
							IterLimit:   120,
							Workers:     1,
							Selectivity: mode.on,
						},
						Blame: mode.on,
					}
					rep, err := dialegg.NewOptimizer(opts).OptimizeModule(m)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Run.Iterations == 0 {
						b.Fatalf("%s did not run", w.name)
					}
					if mode.on && len(rep.Blame) == 0 {
						b.Fatalf("%s: profiling on but no blame rows", w.name)
					}
				}
			})
		}
	}
}
