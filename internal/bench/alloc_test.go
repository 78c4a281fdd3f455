package bench

import (
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/memo"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

// chain16AllocLimit bounds the allocations of one compile of the
// 16-matmul chain. Hash-cons probes, action instructions, primitive
// arguments, matches and cost-override installs allocate nothing;
// matches are stored as pointer-free rows in buffers runs take from a
// pool and hand back, so the buffers keep their storage from run to run;
// a table keeps its rows' argument tuples in one flat block and each
// unstable-cost override on the row it prices, a column index refills
// the storage of the one it replaces, interned vectors are found through
// an index over the stored vectors, with no key string, the translation
// inserts e-nodes without building terms, each rule's match plan and
// compiled actions are built once, and the back-translation decodes
// attributes from the chosen nodes and each result-type class once.
// What remains comes to about 1,520: saturation (350: table growth in
// apply, the stored copy of each new vector, and about 25 for column
// indexes), parsing (550), back-translation (390: the rebuilt operations
// with their types and attributes, and its maps), the translation's
// inserted nodes and its maps (150), and extraction (30). Starting every
// run's match buffers, tasks and bindings empty, and a key string per
// interned vector, add about 290 together; decoding each op's result
// type afresh about 75; building each column index into fresh memory (a
// map and a rows block per build) about 185; rendering each attribute
// and result-type class as a term and parsing it back about 280;
// building the translation as a (let ...) program and evaluating it
// about 1,290 and planning every rule on every run about 180; a string
// key per override install adds about 840; a heap slice per row's
// arguments, or per primitive application, about 2,700 each; per-task
// bindings snapshots or a slice per indexed value over 19,000, and a
// string-keyed row index, or an allocation per probe, per action term or
// per match, over 380,000.
const chain16AllocLimit = 1_650

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

// hitInput is one cache-hit request: a module and the rule sources its
// cache key covers.
type hitInput struct {
	name  string
	src   string
	rules []string
}

// paper5HitInputs returns the five section 8.2 programs as hit inputs.
func paper5HitInputs() []hitInput {
	var in []hitInput
	for _, b := range DefaultBenchmarks(ScaleCI) {
		in = append(in, hitInput{name: b.Name, src: b.Source, rules: b.Rules})
	}
	return in
}

// mm20HitInput returns the 20-matmul chain as a hit input.
func mm20HitInput() hitInput {
	return hitInput{name: "20MM", src: MatmulChainSource("mm20", NMMDims(20)), rules: rules.MatmulChain()}
}

// hitKey is what a cache hit computes before its lookup: the canonical
// module text and the content address over it and the rule sources.
func hitKey(tb testing.TB, in hitInput) string {
	canon, err := memo.CanonicalizeMLIR(in.src)
	if err != nil {
		tb.Fatalf("%s: %v", in.name, err)
	}
	return memo.Key(canon, in.rules, egraph.RunConfig{})
}

// Allocation limits of one cache hit's canonicalize and key. A hit
// allocates the parsed module, its printed text and the digest, about
// 230 times on a paper5 program and 760 times on the 20-matmul chain.
// Building the dialect registry per call, rendering types through fmt or
// comparing types by printing them puts a hit above 580 and 2,300.
const (
	paper5HitAllocLimit = 400
	mm20HitAllocLimit   = 1_400
)

// TestCacheHitAllocs gates the fixed costs of a cache hit: canonicalize
// and key each paper5 program (averaged over the five) and the 20-matmul
// chain. Allocation counts at a fixed input repeat exactly, so the gate
// cannot flake.
func TestCacheHitAllocs(t *testing.T) {
	var total float64
	inputs := paper5HitInputs()
	for _, in := range inputs {
		total += testing.AllocsPerRun(3, func() { hitKey(t, in) })
	}
	if n := total / float64(len(inputs)); n > paper5HitAllocLimit {
		t.Errorf("paper5 hit: %.0f allocations on average, want at most %d", n, paper5HitAllocLimit)
	} else {
		t.Logf("paper5 hit: %.0f allocations on average", n)
	}
	mm20 := mm20HitInput()
	if n := testing.AllocsPerRun(3, func() { hitKey(t, mm20) }); n > mm20HitAllocLimit {
		t.Errorf("mm20 hit: %.0f allocations, want at most %d", n, mm20HitAllocLimit)
	} else {
		t.Logf("mm20 hit: %.0f allocations", n)
	}
}
