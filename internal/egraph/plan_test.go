package egraph

import (
	"strings"
	"testing"
)

// Tests for compiled match plans: the column ops a step is compiled to
// (bind, check, literal), the access paths fixed when the plan is built,
// and the bindings a match stores.

// subMatches runs semi-naive sub-query s of r against the frontier the
// last advanceFrontier rotated (rows stamped minStamp or later are delta)
// and returns its matches.
func subMatches(t *testing.T, g *EGraph, r *Rule, s int, minStamp uint64) [][]Value {
	t.Helper()
	var m matchRun
	var out [][]Value
	m.reset(g, r, r.planOf(), matchSpec{deltaOrd: s, minStamp: minStamp})
	m.yield = func(binds []Value) bool {
		out = append(out, binds)
		return true
	}
	if err := m.matchShard(0, -1); err != nil {
		t.Fatal(err)
	}
	return out
}

// allMatches runs r's full query.
func allMatches(t *testing.T, g *EGraph, r *Rule) [][]Value {
	t.Helper()
	var out [][]Value
	if err := g.Match(r, func(binds []Value) bool {
		out = append(out, binds)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// wantMatches fails unless got holds exactly the bindings want, in order,
// compared by raw bits.
func wantMatches(t *testing.T, what string, got [][]Value, want ...[]Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", what, len(got), len(want))
	}
	for i := range want {
		for s, v := range want[i] {
			if got[i][s].Bits != v.Bits {
				t.Errorf("%s: match %d slot %d = %d, want %d", what, i, s, got[i][s].Bits, v.Bits)
			}
		}
	}
}

// TestPlanRepeatedVariable: a variable repeated inside one premise binds
// at its first column and is checked at the rest, whether the premise
// scans the table (full query), scans a frontier (the delta premise of a
// sub-query) or probes an index (the other premise of a sub-query).
func TestPlanRepeatedVariable(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	// Div(?x, ?x) = ?y, Mul(?y, ?z) = ?w
	r := &Rule{
		Name: "repeat",
		Premises: []Premise{
			&TablePremise{Fn: l.Div, Args: []Atom{VarAtom(0), VarAtom(0)}, Out: VarAtom(1)},
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(1), VarAtom(2)}, Out: VarAtom(3)},
		},
		NumSlots: 4,
	}
	plan := r.planOf()
	if k := plan.delta[1][1].kind; k != stepProbe {
		t.Fatalf("sub-query 1 reaches Div by access path %d, want a probe", k)
	}
	a, _ := g.Insert(l.Var, g.InternString("a"))
	b, _ := g.Insert(l.Var, g.InternString("b"))
	d1 := l.app(t, l.Div, a, a)
	d2 := l.app(t, l.Div, a, b)
	g.advanceFrontier()
	m1 := l.app(t, l.Mul, d1, b)
	l.app(t, l.Mul, d2, b)
	_, minStamp := g.advanceFrontier()

	wantMatches(t, "full query", allMatches(t, g, r), []Value{a, d1, b, m1})
	// Mul is the delta: the Div(a, b) its second row probes fails the check.
	wantMatches(t, "sub-query 1", subMatches(t, g, r, 1, minStamp), []Value{a, d1, b, m1})
	wantMatches(t, "sub-query 0", subMatches(t, g, r, 0, minStamp))

	d3 := l.app(t, l.Div, b, b)
	m3 := l.app(t, l.Mul, d3, a)
	l.app(t, l.Div, b, a)
	_, minStamp = g.advanceFrontier()
	// Div is the delta: the frontier scan binds ?x at Div(b, b) and
	// rejects Div(b, a). Sub-query 1 may read only old Div rows.
	wantMatches(t, "sub-query 0 after", subMatches(t, g, r, 0, minStamp), []Value{b, d3, a, m3})
	wantMatches(t, "sub-query 1 after", subMatches(t, g, r, 1, minStamp))
	wantMatches(t, "full query after", allMatches(t, g, r), []Value{a, d1, b, m1}, []Value{b, d3, a, m3})
}

// TestPlanLiterals: a literal argument filters rows, and an eq-sort
// literal resolves through the union-find when a run starts, so a rule
// planned before the literal's class was merged still matches the rows
// Rebuild moved to the merged class.
func TestPlanLiterals(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	x, _ := g.Insert(l.Var, g.InternString("x"))
	c, _ := g.Insert(l.Var, g.InternString("c"))
	d, _ := g.Insert(l.Var, g.InternString("d"))
	two := l.num(t, 2)
	xc := l.app(t, l.Mul, x, c)
	l.app(t, l.Mul, x, d)
	// Num(2) = ?n is a lookup on a literal; Mul(?y, c) = ?z probes the
	// column holding the eq-sort literal c.
	r := &Rule{
		Name: "lits",
		Premises: []Premise{
			&TablePremise{Fn: l.Num, Args: []Atom{LitAtom(I64Value(g.I64, 2))}, Out: VarAtom(0)},
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(1), LitAtom(c)}, Out: VarAtom(2)},
		},
		NumSlots: 3,
	}
	wantMatches(t, "before the merge", allMatches(t, g, r), []Value{two, x, xc})
	if k := r.planOf().full[1].kind; k != stepProbe {
		t.Fatalf("Mul(?y, c) compiled to access path %d, want a probe", k)
	}

	// d's class survives the union, so c is no longer canonical; Rebuild
	// merges Mul(x, c) into Mul(x, d), which keeps d as its argument.
	if root, err := g.Union(d, c); err != nil || root.Bits != d.Bits {
		t.Fatalf("union root %d (err %v), want d = %d", root.Bits, err, d.Bits)
	}
	g.Rebuild()
	got := allMatches(t, g, r)
	if len(got) != 1 || g.Find(got[0][2]).Bits != g.Find(xc).Bits {
		t.Fatalf("after the merge: %d matches, want Mul(x, c) through its merged class", len(got))
	}
	r3 := &Rule{
		Name:     "lit-miss",
		Premises: []Premise{&TablePremise{Fn: l.Num, Args: []Atom{LitAtom(I64Value(g.I64, 3))}, Out: VarAtom(0)}},
		NumSlots: 1,
	}
	wantMatches(t, "absent literal", allMatches(t, g, r3))
}

// TestLookupKeepsFirstBinding: when a lookup's output variable is already
// bound by another row's output, the lookup only checks it, so the
// binding, and the match the runner stores, keep the e-node the first row
// holds rather than the lookup row's or the canonical one.
func TestLookupKeepsFirstBinding(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	x, _ := g.Insert(l.Var, g.InternString("x"))
	y, _ := g.Insert(l.Var, g.InternString("y"))
	add := l.app(t, l.Add, x, y)
	mul := l.app(t, l.Mul, x, y)
	if root, err := g.Union(mul, add); err != nil || root.Bits != mul.Bits {
		t.Fatalf("union root %d (err %v), want mul = %d", root.Bits, err, mul.Bits)
	}
	g.Rebuild()
	// Add(?a, ?b) = ?r, Mul(?a, ?b) = ?r  =>  (union ?r ?r). A stored
	// match keeps the slots the actions read, so the action reads ?r.
	r := &Rule{
		Name: "same-class",
		Premises: []Premise{
			&TablePremise{Fn: l.Add, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
		},
		Actions:  []Action{&UnionAction{A: &ATerm{Kind: AVar, Slot: 2}, B: &ATerm{Kind: AVar, Slot: 2}}},
		NumSlots: 3,
	}
	if st := r.planOf().full[1]; st.kind != stepLookup || len(st.ops) != 1 || st.ops[0].kind != opCheck {
		t.Fatalf("Mul premise compiled to access path %d with ops %+v, want a lookup checking its output", st.kind, st.ops)
	}
	wantMatches(t, "Match", allMatches(t, g, r), []Value{x, y, add})

	var m matchRun
	var buf matchBuf
	m.reset(g, r, r.planOf(), matchSpec{deltaOrd: -1})
	m.out = &buf
	if err := m.matchShard(0, -1); err != nil {
		t.Fatal(err)
	}
	binds := make([]Value, r.NumSlots)
	buf.load(binds, 0, r.planOf())
	if buf.n != 1 || binds[2] != add {
		t.Fatalf("stored %d matches, ?r = %d; want 1 holding the Add row's e-node %d", buf.n, binds[2].Bits, add.Bits)
	}
}

// TestMatchNeedsRebuiltGraph: matching compares the canonical bits rows
// hold, so Match on a graph with a union not yet rebuilt is an error, and
// Rebuild makes it match again.
func TestMatchNeedsRebuiltGraph(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a, b := l.num(t, 1), l.num(t, 2)
	l.app(t, l.Div, a, b)
	if _, err := g.Union(a, b); err != nil {
		t.Fatal(err)
	}
	r := divCancel(l)
	err := g.Match(r, func([]Value) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "rebuilt") {
		t.Fatalf("Match on a dirty graph: err = %v, want a rebuild error", err)
	}
	g.Rebuild()
	if n := len(allMatches(t, g, r)); n != 1 {
		t.Fatalf("after Rebuild: %d matches, want 1", n)
	}
}

// TestShardedLookupRoot: only a query's first step is sharded. A rule
// whose first premise is a lookup on literals runs wholly in the shard
// that starts at row 0 of that premise's table, and the unconnected premise
// it then scans must visit every row of its own table, not the rows the
// shard's range names. So every shard count yields the serial matches, and
// a run applies the same matches at one worker and at two.
func TestShardedLookupRoot(t *testing.T) {
	build := func() (*exprLang, *Rule) {
		l := newExprLangQuiet()
		// 80 Num rows (over shardMinRows) and 80 Mul rows: a shard of the
		// Num table's range covers only part of the Mul table.
		nums := make([]Value, 80)
		for i := range nums {
			nums[i] = l.num(t, int64(i))
		}
		for i := range nums {
			l.app(t, l.Mul, nums[i], nums[(i+1)%len(nums)])
		}
		// Num(0) = ?z, Mul(?a, ?b) = ?e  =>  Add(?e, ?z)
		return l, &Rule{
			Name: "lit-root",
			Premises: []Premise{
				&TablePremise{Fn: l.Num, Args: []Atom{LitAtom(I64Value(l.g.I64, 0))}, Out: VarAtom(0)},
				&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(1), VarAtom(2)}, Out: VarAtom(3)},
			},
			Actions: []Action{&InsertAction{T: &ATerm{Kind: AApp, Fn: l.Add, Args: []*ATerm{
				{Kind: AVar, Slot: 3}, {Kind: AVar, Slot: 0},
			}}}},
			NumSlots: 4,
		}
	}
	l, r := build()
	if k := r.planOf().full[1].kind; k != stepScan {
		t.Fatalf("Mul premise compiled to access path %d, want a scan", k)
	}
	want := serialMatches(l.g, r)
	if len(want) != 80 {
		t.Fatalf("serial: %d matches, want 80", len(want))
	}
	for _, shards := range []int{2, 3, 8} {
		if got := shardedMatches(t, l.g, r, shards); !bindingsEqual(want, got) {
			t.Errorf("%d shards: %d matches, serial %d (or order diverged)", shards, len(got), len(want))
		}
	}

	var adds [2]int
	for w := range adds {
		l, r := build()
		rep := l.g.Run([]*Rule{r}, RunConfig{IterLimit: 1, Workers: w + 1})
		if rep.Stop == StopRuleError {
			t.Fatalf("workers %d: run stopped with an error", w+1)
		}
		adds[w] = l.g.tab(l.Add).live
	}
	if adds[0] != 80 || adds[1] != adds[0] {
		t.Fatalf("Add rows after one iteration: %d at one worker, %d at two; want 80 at both", adds[0], adds[1])
	}
}
