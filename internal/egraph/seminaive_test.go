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
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dialegg/internal/sched"
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
		t := g.tab(f)
		for i := range t.rows {
			r := &t.rows[i]
			if r.dead {
				continue
			}
			b.WriteString(" [")
			for _, a := range t.argsOf(i) {
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
		// is asserted on the benchmark workloads
		// (egglog.TestSemiNaiveDiffBenchWorkloads).
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

// fallbackGraph builds `chains` left-associated Add chains of five leaves
// under assocRule. The Add table starts with four rows per chain, and the
// first iteration adds more than half as many again, so the hybrid
// planner runs the second iteration's assoc query as a full scan.
func fallbackGraph(chains int) (*exprLang, []*Rule) {
	l := newExprLangQuiet()
	g := l.g
	for c := 0; c < chains; c++ {
		prev, _ := g.Insert(l.Num, I64Value(g.I64, int64(5*c)))
		for i := 1; i < 5; i++ {
			leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(5*c+i)))
			prev, _ = g.Insert(l.Add, prev, leaf)
		}
	}
	return l, []*Rule{assocRule(l.Add)}
}

// secondIterMatches runs fallbackGraph's first iteration, opens the
// second iteration's epoch the way the runner does, and enumerates the
// assoc query over the whole database in its serial order. For each match
// it reports whether the match binds a delta row: a row of either premise
// (looked up from the match's bindings) stamped in the first iteration.
func secondIterMatches(t *testing.T, chains int) (isNew []bool) {
	t.Helper()
	l, rules := fallbackGraph(chains)
	g := l.g
	if rep := g.Run(rules, RunConfig{IterLimit: 1, Workers: 1}); rep.Err != nil || rep.Iterations != 1 {
		t.Fatalf("first iteration: %d iterations, err %v", rep.Iterations, rep.Err)
	}
	_, minStamp := g.advanceFrontier()
	tab := g.tab(l.Add)
	delta := func(x, y Value) bool {
		ri, ok := tab.lookupRow([]Value{g.Find(x), g.Find(y)})
		if !ok {
			t.Fatalf("no Add row for a matched binding")
		}
		return tab.rows[ri].stamp >= minStamp
	}
	// assocRule binds Add(x0, x1) = x2 and Add(x2, x3) = x4.
	if err := g.Match(rules[0], func(b []Value) bool {
		isNew = append(isNew, delta(b[0], b[1]) || delta(b[2], b[3]))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return isNew
}

// countTrue counts the true entries of bs.
func countTrue(bs []bool) int64 {
	n := int64(0)
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestFallbackAppliesOnlyNewMatches: when the hybrid planner runs a rule
// as a full scan in a semi-naive iteration, the re-found old matches are
// counted but not applied. Matched counts every enumerated match, Applied
// exactly those binding a delta row, and the run ends in naive mode's
// state. Under a scheduler cap that falls between old and new matches,
// the cap counts every match by its enumeration position: only the new
// matches before it are applied, and Dropped counts the matches after it.
func TestFallbackAppliesOnlyNewMatches(t *testing.T) {
	const chains = 20
	isNew := secondIterMatches(t, chains)
	found, fresh := int64(len(isNew)), countTrue(isNew)
	if fresh == 0 || fresh == found {
		t.Fatalf("setup: %d of the second iteration's %d matches are new, want old and new ones", fresh, found)
	}
	t.Logf("second iteration: %d matches, %d new", found, fresh)

	nl, nrules := fallbackGraph(chains)
	nrep := nl.g.Run(nrules, RunConfig{IterLimit: 10, Workers: 1, Naive: true})
	if !nrep.Saturated() {
		t.Fatalf("naive run: stop = %s, want saturated", nrep.Stop)
	}
	want := graphFingerprint(nl.g)
	for _, workers := range []int{1, 4} {
		l, rules := fallbackGraph(chains)
		obs := &captureObserver{}
		rep := l.g.Run(rules, RunConfig{IterLimit: 10, Workers: workers, Observer: obs})
		if !rep.Saturated() {
			t.Fatalf("workers=%d: stop = %s, want saturated", workers, rep.Stop)
		}
		if got := graphFingerprint(l.g); got != want {
			t.Errorf("workers=%d: final graph differs from naive mode's:\n--- naive ---\n%s--- got ---\n%s", workers, want, got)
		}
		second := obs.rules[1][0]
		if second.Matched != found || second.Applied != fresh {
			t.Errorf("workers=%d: second iteration matched/applied %d/%d, want %d/%d", workers, second.Matched, second.Applied, found, fresh)
		}
		if m := obs.stats[1].Matches; int64(m) != fresh {
			t.Errorf("workers=%d: second iteration's IterStats.Matches = %d, want %d", workers, m, fresh)
		}
	}

	// The cap: past the first iteration's matches (so that iteration is
	// not truncated and the second is a fallback, not a debt pass), with
	// old and new matches before it and new ones after it.
	first := int64(0)
	{
		l, rules := fallbackGraph(chains)
		first = l.g.Run(rules, RunConfig{IterLimit: 1, Workers: 1}).Rules[0].Matched
	}
	limit := max(first, found/2)
	before := countTrue(isNew[:limit])
	if before == 0 || before == limit || before == fresh {
		t.Fatalf("setup: cap %d has %d new matches before it of %d, want old and new before it and new after it", limit, before, fresh)
	}
	t.Logf("cap %d: first iteration %d matches, %d new before the cap", limit, first, before)
	var fps []string
	for _, workers := range []int{1, 4} {
		l, rules := fallbackGraph(chains)
		obs := &captureObserver{}
		rep := l.g.Run(rules, RunConfig{IterLimit: 2, Workers: workers, Observer: obs,
			Scheduler: sched.MatchLimit{Limit: int(limit)}})
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		fps = append(fps, graphFingerprint(l.g))
		if len(rep.PerIter[0].Sched) != 0 {
			t.Fatalf("workers=%d: the cap truncated the first iteration: %+v", workers, rep.PerIter[0].Sched)
		}
		second := obs.rules[1][0]
		if second.Matched != found || second.Applied != before || !second.Limited {
			t.Errorf("workers=%d: capped second iteration matched/applied/limited %d/%d/%v, want %d/%d/true",
				workers, second.Matched, second.Applied, second.Limited, found, before)
		}
		wantDec := []SchedDecision{{Rule: rules[0].Name, Action: "limit", Limit: int(limit), Dropped: found - limit}}
		if got := rep.PerIter[1].Sched; !reflect.DeepEqual(got, wantDec) {
			t.Errorf("workers=%d: second iteration's decisions = %+v, want %+v", workers, got, wantDec)
		}
		if got := rep.Rules[0].SchedDropped; got != found-limit {
			t.Errorf("workers=%d: SchedDropped = %d, want %d", workers, got, found-limit)
		}
	}
	if fps[0] != fps[1] {
		t.Errorf("capped runs differ between workers 1 and 4")
	}
}
