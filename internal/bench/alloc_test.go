package bench

import (
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

// chain16AllocLimit bounds the allocations of one compile of the
// 16-matmul chain. Hash-cons probes, action terms and matches allocate
// nothing; matches are stored as pointer-free rows in buffers a run
// reuses across its iterations, and a column index is one flat block.
// What remains (rows' argument tuples, primitive arguments, the column
// indexes, parsing, extraction and back-translation) comes to about
// 12,000. Per-task bindings snapshots or a slice per indexed value put a
// compile above 23,000; a string-keyed row index, or an allocation per
// probe, per action term or per match, above 390,000.
const chain16AllocLimit = 16_000

// TestChain16CompileAllocs gates the allocation-free hash-consing and rule
// application paths end to end: parse, saturate at one worker, extract and
// back-translate the 16-matmul chain. At a fixed input and one worker the
// count repeats exactly, so the gate cannot flake.
func TestChain16CompileAllocs(t *testing.T) {
	src := MatmulChainSource("mm16", NMMDims(16))
	compile := func() {
		m, err := mlir.ParseModule(src, dialects.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		opt := dialegg.NewOptimizer(dialegg.Options{
			RuleSources: rules.MatmulChain(),
			RunConfig:   egraph.RunConfig{Workers: 1},
		})
		rep, err := opt.OptimizeModule(m)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Run.Saturated() {
			t.Fatalf("chain16 did not saturate: %s", rep.Run.Stop)
		}
	}
	if n := testing.AllocsPerRun(3, compile); n > chain16AllocLimit {
		t.Errorf("chain16 compile: %.0f allocations, want at most %d", n, chain16AllocLimit)
	} else {
		t.Logf("chain16 compile: %.0f allocations", n)
	}
}
