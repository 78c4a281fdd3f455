package egraph

// Tests for the saturation runner's parallel match phase: worker-count
// determinism, stats accounting, and the snapshot/canonicalization safety
// properties the match phase depends on.

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// commRule returns f(x, y) = r => union(r, f(y, x)).
func commRule(f *Function) *Rule {
	return &Rule{
		Name: "comm-" + f.Name,
		Premises: []Premise{
			&TablePremise{Fn: f, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
		},
		Actions: []Action{
			&UnionAction{
				A: &ATerm{Kind: AVar, Slot: 2},
				B: &ATerm{Kind: AApp, Fn: f, Args: []*ATerm{{Kind: AVar, Slot: 1}, {Kind: AVar, Slot: 0}}},
			},
		},
		NumSlots: 3,
	}
}

// TestRunWorkersDeterministic: the same graph saturated with 1, 2, and 8
// workers reports identical iteration counts, nodes, classes, and unions.
func TestRunWorkersDeterministic(t *testing.T) {
	build := func() (*exprLang, []*Rule) {
		l := newExprLangQuiet()
		g := l.g
		prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
		for i := 1; i < 200; i++ {
			leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
			prev, _ = g.Insert(l.Add, prev, leaf)
		}
		return l, []*Rule{commRule(l.Add), commRule(l.Mul)}
	}

	type outcome struct {
		iters, nodes, classes int
		unions                uint64
		stop                  StopReason
	}
	run := func(workers int) outcome {
		l, rules := build()
		rep := l.g.Run(rules, RunConfig{IterLimit: 4, NodeLimit: 50_000, Workers: workers})
		if rep.Workers != workers {
			t.Fatalf("report workers = %d, want %d", rep.Workers, workers)
		}
		return outcome{rep.Iterations, rep.Nodes, rep.Classes, l.g.UnionCount(), rep.Stop}
	}

	want := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != want {
			t.Errorf("workers=%d: %+v, want (serial) %+v", w, got, want)
		}
	}
}

// TestRunStats: the per-iteration stats struct accounts matches, unions,
// and phase times (naive mode, where every iteration re-matches the full
// database; semi-naive accounting is covered by TestRunStatsSemiNaive).
func TestRunStats(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	a, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	b, _ := g.Insert(l.Num, I64Value(g.I64, 2))
	g.Insert(l.Add, a, b)
	rep := g.Run([]*Rule{commRule(l.Add)}, RunConfig{IterLimit: 3, Workers: 2, Naive: true})
	if !rep.Saturated() {
		t.Fatalf("stop = %s, want saturated", rep.Stop)
	}
	if len(rep.PerIter) != rep.Iterations {
		t.Fatalf("PerIter entries = %d, iterations = %d", len(rep.PerIter), rep.Iterations)
	}
	// Iteration 1 matches Add(a,b) and unions in the flipped Add(b,a).
	if rep.PerIter[0].Matches != 1 || rep.PerIter[0].Unions != 1 {
		t.Errorf("iter 1 stats = %+v", rep.PerIter[0])
	}
	// Iteration 2 matches both orientations; everything is already equal.
	if rep.PerIter[1].Matches != 2 || rep.PerIter[1].Unions != 0 {
		t.Errorf("iter 2 stats = %+v", rep.PerIter[1])
	}
	if rep.PerIter[1].RebuildPasses < 1 {
		t.Errorf("iter 2 rebuild passes = %d, want >= 1", rep.PerIter[1].RebuildPasses)
	}
	var m, ap, rb time.Duration
	for _, it := range rep.PerIter {
		m += it.MatchTime
		ap += it.ApplyTime
		rb += it.RebuildTime
	}
	if m != rep.MatchTime || ap != rep.ApplyTime || rb != rep.RebuildTime {
		t.Errorf("aggregate times (%v %v %v) != per-iter sums (%v %v %v)",
			rep.MatchTime, rep.ApplyTime, rep.RebuildTime, m, ap, rb)
	}
}

// TestRunStatsSemiNaive: from the second iteration on, the default run
// mode matches only the delta — iteration 2 re-examines the one row the
// first iteration inserted (the flipped Add), not the whole database,
// and the run still saturates at the same iteration with the same graph.
func TestRunStatsSemiNaive(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	a, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	b, _ := g.Insert(l.Num, I64Value(g.I64, 2))
	g.Insert(l.Add, a, b)
	rep := g.Run([]*Rule{commRule(l.Add)}, RunConfig{IterLimit: 3, Workers: 2})
	if !rep.Saturated() {
		t.Fatalf("stop = %s, want saturated", rep.Stop)
	}
	if rep.PerIter[0].SemiNaive {
		t.Errorf("iteration 1 must be a full match, got SemiNaive=true")
	}
	if rep.PerIter[0].Matches != 1 || rep.PerIter[0].Unions != 1 {
		t.Errorf("iter 1 stats = %+v", rep.PerIter[0])
	}
	it2 := rep.PerIter[1]
	if !it2.SemiNaive {
		t.Fatalf("iteration 2 should be semi-naive: %+v", it2)
	}
	// The delta after iteration 1 is the inserted Add(b,a) row plus the
	// re-merged originals touched by rebuild; only the flipped orientation
	// is a new match, and applying it unions nothing new.
	if it2.Matches != 1 || it2.Unions != 0 {
		t.Errorf("iter 2 stats = %+v", it2)
	}
	if it2.DeltaRows == 0 {
		t.Errorf("iter 2 delta rows = 0, want > 0")
	}
	// On this tiny graph the delta (one row) is as big as the full scan
	// would be; the strictly-fewer property is asserted on the bench
	// workloads. Here only accounting matters: the delta scan is counted.
	if it2.RowsScanned == 0 {
		t.Errorf("iter 2 rows scanned = 0, want > 0")
	}
	var scanned int64
	for _, it := range rep.PerIter {
		scanned += it.RowsScanned
	}
	if scanned != rep.RowsScanned {
		t.Errorf("aggregate rows scanned %d != per-iter sum %d", rep.RowsScanned, scanned)
	}
}

// TestMidIterationUnionInvalidatesCachedCanon is the regression test for
// the apply phase's staleness hazard: matches are collected against the
// iteration-start snapshot, so by the time a later match is applied, an
// earlier apply may have unioned away the canonical ID its bindings
// cached. ApplyActions must re-canonicalize through Find rather than
// trust the cached IDs.
func TestMidIterationUnionInvalidatesCachedCanon(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	x, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	y, _ := g.Insert(l.Num, I64Value(g.I64, 2))
	sum, _ := g.Insert(l.Add, x, y)
	g.Rebuild()

	// Collect the match of comm(Add) against the frozen snapshot.
	r := commRule(l.Add)
	var cached [][]Value
	if err := g.Match(r, func(binds []Value) bool {
		cached = append(cached, binds)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(cached) != 1 {
		t.Fatalf("matches = %d, want 1", len(cached))
	}

	// A mid-iteration union (as an earlier rule's apply would perform)
	// makes the cached binding for x non-canonical.
	if _, err := g.Union(x, y); err != nil {
		t.Fatal(err)
	}
	if g.Find(x).Bits == x.Bits && g.Find(y).Bits == y.Bits {
		t.Fatal("union did not change any canonical ID; test is vacuous")
	}

	// Applying the stale match must still work and land Add(y, x) in
	// sum's class.
	if err := g.ApplyActions(r, cached[0]); err != nil {
		t.Fatal(err)
	}
	g.Rebuild()
	flipped, err := g.Insert(l.Add, g.Find(y), g.Find(x))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Eq(flipped, sum) {
		t.Error("Add(y, x) not unioned with Add(x, y) after stale apply")
	}
	checkCongruenceInvariants(t, g)
}

// TestConcurrentFindDuringMatch hammers the reads the parallel match
// phase performs — Find (with its path-halving writes), table scans, and
// pool interning — from many goroutines against a frozen graph. Run with
// -race this is the regression test for snapshot safety of the shared
// structures.
func TestConcurrentFindDuringMatch(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	var vals []Value
	prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
	vals = append(vals, prev)
	for i := 1; i < 500; i++ {
		leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
		prev, _ = g.Insert(l.Mul, prev, leaf)
		vals = append(vals, prev, leaf)
	}
	// Deep union chains so Find has real halving work to race on.
	for i := 0; i+4 < len(vals); i += 5 {
		g.Union(vals[i], vals[i+4])
	}
	g.Rebuild()

	r := &Rule{
		Name: "join",
		Premises: []Premise{
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(2), VarAtom(3)}, Out: VarAtom(4)},
		},
		NumSlots: 5,
	}
	// Declaring a sort is a compile-time step, never concurrent with
	// matching; only the interning below races.
	vecI64 := g.VecSortOf(g.I64)
	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	counts := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0: // e-matching
				_ = g.Match(r, func([]Value) bool { counts[w]++; return true })
			case 1: // raw canonicalization
				for _, v := range vals {
					_ = g.Find(v)
				}
				counts[w] = 1
			default: // pool interning (string prims do this mid-match)
				g.InternString("shared")
				g.InternVec(vecI64, []Value{I64Value(g.I64, int64(w))})
				counts[w] = 1
			}
		}(w)
	}
	wg.Wait()
	want := -1
	for w := 0; w < workers; w += 3 {
		if want == -1 {
			want = counts[w]
		} else if counts[w] != want {
			t.Fatalf("concurrent matchers disagree: %d vs %d matches", counts[w], want)
		}
	}
	if want <= 0 {
		t.Fatal("join rule found no matches")
	}
}

// TestStopMidIterationKeepsPartialRecord: a run stopped inside an
// iteration by a rule error keeps that iteration's partial record —
// PerIter gains its entry while Iterations counts only completed
// iterations, and Rules gains what the iteration matched and applied
// before the failure.
func TestStopMidIterationKeepsPartialRecord(t *testing.T) {
	for _, phase := range []string{"match", "apply"} {
		l, _ := buildChainGraph()
		calls := 0
		failThird := &Prim{Name: "fail-third", Apply: func(_ *EGraph, args []Value) (Value, bool) {
			calls++
			return args[0], calls < 3
		}}
		boom := &Rule{
			Name:     "boom",
			Premises: []Premise{&TablePremise{Fn: l.Add, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)}},
			Actions: []Action{&UnionAction{
				A: &ATerm{Kind: AVar, Slot: 2},
				B: &ATerm{Kind: APrim, Prim: failThird, Args: []*ATerm{{Kind: AVar, Slot: 2}}},
			}},
			NumSlots: 4,
		}
		if phase == "match" {
			// Slot 3 is never bound, so matching the rule fails.
			boom.Premises = append(boom.Premises, &EvalPremise{Prim: failThird, Args: []Atom{VarAtom(3)}, Out: VarAtom(3)})
		}
		rep := l.g.Run([]*Rule{commRule(l.Add), boom}, RunConfig{IterLimit: 4, Workers: 2})
		if rep.Stop != StopRuleError || rep.Err == nil || !strings.Contains(rep.Err.Error(), phase+"ing rule boom") {
			t.Fatalf("%s: stop = %s, err = %v", phase, rep.Stop, rep.Err)
		}
		if rep.Iterations != 0 || len(rep.PerIter) != 1 || rep.PerIter[0].Matches != 0 {
			t.Errorf("%s: iterations %d, per-iter %+v; want the one partial record", phase, rep.Iterations, rep.PerIter)
		}
		comm, b := rep.Rules[0], rep.Rules[1]
		switch phase {
		case "match":
			if comm.Matched != 0 || b.Matched != 0 || comm.Applied != 0 || b.Applied != 0 {
				t.Errorf("match: rules %+v, want nothing matched or applied", rep.Rules)
			}
		case "apply":
			// comm-Add precedes boom, so its batch applied in full; boom
			// applied two matches before its third failed.
			if comm.Matched == 0 || comm.Applied != comm.Matched || b.Matched != comm.Matched || b.Applied != 2 {
				t.Errorf("apply: rules %+v, want comm fully applied and boom 2 of %d", rep.Rules, comm.Matched)
			}
		}
	}
}
