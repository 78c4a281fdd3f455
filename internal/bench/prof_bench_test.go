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

// BenchmarkProfileOverhead prices the saturation profiler's three
// configurations on the chain16 and Poly workloads: off (the default —
// no sampling, no blame; must be within noise of the seed since the
// disabled path is a nil/zero check), sampled (the recommended -profile
// -profile-sample 8 setup: every-8th-root selectivity counters and
// extraction blame), and full (-profile-sample 1: every match root
// instrumented). Per-rule metrics are on in every mode, as in every run.
// The off/sampled ratio is what a user pays to get blame tables; off/full
// bounds the worst case. Results are recorded in EXPERIMENTS.md.
func BenchmarkProfileOverhead(b *testing.B) {
	modes := []struct {
		name   string
		sample int
		on     bool
	}{
		{"off", 0, false},
		{"sampled", 8, true},
		{"full", 1, true},
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
							NodeLimit:     2_000_000,
							MatchLimit:    2_000_000,
							TimeLimit:     240 * time.Second,
							IterLimit:     120,
							Workers:       1,
							ProfileSample: mode.sample,
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
