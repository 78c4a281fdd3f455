package dialegg_test

import (
	"testing"

	"dialegg/internal/bench"
	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

// Allocation limits of translating a module into clones of its rule
// set's template, e-node insertion included: the 16-matmul chain, and the
// average over the five §8.2 programs. The translation builds no
// s-expression and binds no let, so what remains is the translator's
// value map and term stack, the nodes it records for explanations, the
// interned vectors and strings, and table growth.
const (
	chain16TranslateAllocLimit = 200
	paper5TranslateAllocLimit  = 160
)

// TestTranslateInsertAllocs gates the MLIR-to-egg step alone. At a fixed
// input the count repeats exactly, so the gate cannot flake.
func TestTranslateInsertAllocs(t *testing.T) {
	const runs = 3
	count := func(name, src string, ruleSrcs []string) float64 {
		m, err := mlir.ParseModule(src, dialects.NewRegistry())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		translate, err := dialegg.TranslateRuns(ruleSrcs, m, runs+1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return testing.AllocsPerRun(runs, func() {
			if err := translate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
	if n := count("chain16", bench.MatmulChainSource("mm16", bench.NMMDims(16)), rules.MatmulChain()); n > chain16TranslateAllocLimit {
		t.Errorf("chain16 translation: %.0f allocations, want at most %d", n, chain16TranslateAllocLimit)
	} else {
		t.Logf("chain16 translation: %.0f allocations", n)
	}
	var total float64
	programs := bench.DefaultBenchmarks(bench.ScaleCI)
	for _, b := range programs {
		total += count(b.Name, b.Source, b.Rules)
	}
	if n := total / float64(len(programs)); n > paper5TranslateAllocLimit {
		t.Errorf("paper5 translation: %.0f allocations on average, want at most %d", n, paper5TranslateAllocLimit)
	} else {
		t.Logf("paper5 translation: %.0f allocations on average", n)
	}
}
