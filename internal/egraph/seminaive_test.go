package egraph

// Differential and property tests for semi-naive (delta-frontier)
// matching. The engine contract: the default run mode (semi-naive, which
// from the second iteration on only matches sub-queries anchored at rows
// the previous iteration changed) is bit-identical to Naive mode — same
// union count, same tables in the same row order, same canonical forms,
// same extraction — at every worker count.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// graphFingerprint folds the complete observable state of a saturated
// graph into a string: union/node/class counts plus every live row of
// every function in row order, with canonical arguments and outputs.
// Two runs with equal fingerprints are indistinguishable to matching,
// extraction, and proofs-by-canonical-form alike.
func graphFingerprint(g *EGraph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "unions %d nodes %d classes %d\n", g.unionCount, g.NumNodes(), g.NumClasses())
	for _, f := range g.funcs {
		fmt.Fprintf(&b, "%s:", f.Name)
		rows := g.tab(f).rows
		for i := range rows {
			r := &rows[i]
			if r.dead {
				continue
			}
			b.WriteString(" [")
			for _, a := range r.args {
				fmt.Fprintf(&b, "%d,", g.Find(a).Bits)
			}
			fmt.Fprintf(&b, "->%d]", g.Find(r.out).Bits)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fuzzSemiNaiveOnce rebuilds the same random graph and rule set four
// times and saturates it naive/semi-naive × serial/parallel. All four
// final states must be identical, and semi-naive must never scan more
// rows than naive.
func fuzzSemiNaiveOnce(t *testing.T, seed int64) {
	build := func() (*exprLang, []*Rule) {
		rng := rand.New(rand.NewSource(seed))
		l := newExprLangQuiet()
		randGraph(l, rng, 2+rng.Intn(5), 10+rng.Intn(40), rng.Intn(10))
		return l, randRules(l, rng, 1+rng.Intn(5))
	}
	run := func(naive bool, workers int) (string, RunReport) {
		l, rules := build()
		rep := l.g.Run(rules, RunConfig{IterLimit: 5, NodeLimit: 20_000, Workers: workers, Naive: naive})
		checkCongruenceInvariants(t, l.g)
		return graphFingerprint(l.g), rep
	}

	wantFP, wantRep := run(true, 1)
	semiFP := ""
	for _, tc := range []struct {
		naive   bool
		workers int
	}{
		{true, runtime.GOMAXPROCS(0)},
		{false, 1},
		{false, runtime.GOMAXPROCS(0)},
	} {
		fp, rep := run(tc.naive, tc.workers)
		if !tc.naive {
			// Within a mode, worker count never changes the result — even
			// under match-limit truncation.
			if semiFP == "" {
				semiFP = fp
			} else if fp != semiFP {
				t.Fatalf("seed %d: semi-naive workers=%d diverged from semi-naive serial", seed, tc.workers)
			}
			if wantRep.Stop == StopMatchLimit || rep.Stop == StopMatchLimit {
				// A truncated run caps a different prefix of the per-rule
				// match list in each mode (naive counts already-seen matches
				// toward the limit), so cross-mode bit-identity is only
				// promised for runs that do not hit MatchLimit.
				continue
			}
		}
		if fp != wantFP {
			t.Fatalf("seed %d: naive=%v workers=%d diverged from naive serial:\n--- want ---\n%s--- got ---\n%s",
				seed, tc.naive, tc.workers, wantFP, fp)
		}
		if rep.Iterations != wantRep.Iterations || rep.Stop != wantRep.Stop {
			t.Fatalf("seed %d: naive=%v workers=%d: iters/stop %d/%s, want %d/%s",
				seed, tc.naive, tc.workers, rep.Iterations, rep.Stop, wantRep.Iterations, wantRep.Stop)
		}
		// No rows-scanned assertion here: on graphs this small the delta is
		// often the whole database, where k delta sub-queries legitimately
		// scan a bit more than one full query. The strictly-fewer property
		// is asserted on the benchmark workloads (TestSemiNaiveScansFewer).
	}
}

// FuzzSemiNaive: any seed must satisfy the naive/semi-naive equivalence.
func FuzzSemiNaive(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 20250301, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fuzzSemiNaiveOnce(t, seed)
	})
}

// TestSemiNaiveProperty runs the fuzz property over a fixed seed sweep
// so `go test` exercises it without -fuzz.
func TestSemiNaiveProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		fuzzSemiNaiveOnce(t, seed)
	}
}

// TestSemiNaiveSkipsQuietIterations: once the frontier of a rule's
// tables is empty the delta planner emits no tasks at all — the
// O(changes) win the architecture is for. A second Run over an already
// saturated graph must scan zero rows in its delta iterations.
func TestSemiNaiveSkipsQuietIterations(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	a, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	b, _ := g.Insert(l.Num, I64Value(g.I64, 2))
	g.Insert(l.Add, a, b)
	rules := []*Rule{commRule(l.Add)}
	if rep := g.Run(rules, RunConfig{IterLimit: 10}); !rep.Saturated() {
		t.Fatalf("first run: stop = %s, want saturated", rep.Stop)
	}
	rep := g.Run(rules, RunConfig{IterLimit: 10})
	if !rep.Saturated() {
		t.Fatalf("second run: stop = %s, want saturated", rep.Stop)
	}
	for i, it := range rep.PerIter[1:] {
		if it.DeltaRows != 0 || it.RowsScanned != 0 {
			t.Errorf("second run iter %d: delta rows %d, scanned %d, want 0/0", i+2, it.DeltaRows, it.RowsScanned)
		}
	}
}
