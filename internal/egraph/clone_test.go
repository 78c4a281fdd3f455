package egraph

import (
	"sync"
	"testing"
)

// TestCloneIsolation: rows, unions, cost overrides, strings, declarations
// and vector sorts created in one clone stay out of the graph it was
// cloned from and out of every other clone.
func TestCloneIsolation(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a, b := l.num(t, 1), l.num(t, 2)
	l.app(t, l.Add, a, b)
	g.Rebuild()
	want := graphFingerprint(g)
	strings := len(g.strings.texts)

	c1, c2 := g.Clone(), g.Clone()
	x, err := c1.Insert(l.Mul, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Union(a, b); err != nil {
		t.Fatal(err)
	}
	c1.Rebuild()
	// Price a node every graph has, so a shared row would show the leak.
	if err := c1.SetNodeCost(l.Add, []Value{a, b}, 9); err != nil {
		t.Fatal(err)
	}
	if c, _ := overrideOf(c1, l.Add, a, b); c != 9 {
		t.Fatalf("clone's override = %d, want 9", c)
	}
	c1.InternVec(c1.VecSortOf(l.Expr), []Value{x})
	c1.InternString("only in c1")
	if _, err := c1.DeclareFunction(&Function{Name: "Neg", Params: []*Sort{l.Expr}, Out: l.Expr}); err != nil {
		t.Fatal(err)
	}
	if graphFingerprint(c1) == want {
		t.Fatal("the mutations did not change the clone")
	}

	for name, o := range map[string]*EGraph{"template": g, "other clone": c2} {
		if got := graphFingerprint(o); got != want {
			t.Errorf("%s changed:\n got %s\nwant %s", name, got, want)
		}
		if o.Eq(a, b) {
			t.Errorf("%s sees the clone's union", name)
		}
		if _, ok := o.Lookup(l.Mul, a, b); ok {
			t.Errorf("%s sees the clone's row", name)
		}
		if c, ok := overrideOf(o, l.Add, a, b); !ok || c != 0 {
			t.Errorf("%s: Add override = %d (row found %v), want no override", name, c, ok)
		}
		if _, ok := o.SortByName("Vec<Expr>"); ok {
			t.Errorf("%s sees the clone's vector sort", name)
		}
		if _, ok := o.FunctionByName("Neg"); ok {
			t.Errorf("%s sees the clone's declaration", name)
		}
		if len(o.strings.texts) != strings {
			t.Errorf("%s sees the clone's strings", name)
		}
	}
}

// TestCloneRunsLikeOriginal: saturating a clone gives exactly the graph
// saturating the original gives, and concurrent clones of one template
// (run under -race) all agree.
func TestCloneRunsLikeOriginal(t *testing.T) {
	build := func() *exprLang {
		l := newExprLangQuiet()
		prev := l.num(t, 0)
		for i := 1; i < 6; i++ {
			prev = l.app(t, l.Add, prev, l.num(t, int64(i)))
		}
		return l
	}
	run := func(l *exprLang, g *EGraph) string {
		g.Run([]*Rule{commRule(l.Add), assocRule(l.Add)}, RunConfig{IterLimit: 4, Workers: 2})
		return graphFingerprint(g)
	}
	ref := build()
	want := run(ref, ref.g)

	tmpl := build()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(tmpl, tmpl.g.Clone())
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("clone %d saturated differently:\n got %s\nwant %s", i, fp, want)
		}
	}
	if fp := graphFingerprint(tmpl.g); fp == want {
		t.Fatal("running the clones saturated the template")
	}
}

// TestCloneOwnsStack: compiled actions run on a value stack the graph
// reuses, so each clone must start with a stack of its own; clones of one
// template applying primitive terms at once would otherwise write the
// same arguments (a race under -race) and read each other's.
func TestCloneOwnsStack(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	sub := &Prim{Name: "-", Apply: func(g *EGraph, args []Value) (Value, bool) {
		return I64Value(g.I64, args[0].AsI64()-args[1].AsI64()), true
	}}
	lit := func(n int64) *ATerm { return &ATerm{Kind: ALit, Lit: I64Value(g.I64, n)} }
	// (let ?1 (Num (- (- ?0 1) (- 10 ?0)))), applied with ?0 bound.
	term := &ATerm{Kind: AApp, Fn: l.Num, Args: []*ATerm{{Kind: APrim, Prim: sub, Args: []*ATerm{
		{Kind: APrim, Prim: sub, Args: []*ATerm{{Kind: AVar, Slot: 0}, lit(1)}},
		{Kind: APrim, Prim: sub, Args: []*ATerm{lit(10), {Kind: AVar, Slot: 0}}},
	}}}}
	rule := &Rule{Name: "num", Actions: []Action{&LetAction{Slot: 1, T: term}}, NumSlots: 2}
	eval := func(g *EGraph, n int64) (Value, error) {
		binds := []Value{I64Value(g.I64, n), {}}
		err := g.ApplyActions(rule, binds)
		return binds[1], err
	}
	if _, err := eval(g, 3); err != nil {
		t.Fatal(err)
	}
	if cap(g.stack) == 0 {
		t.Fatal("applying the rule left the template without a stack; the test is vacuous")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		c := g.Clone()
		if cap(c.stack) != 0 {
			t.Fatal("a clone starts with its template's value stack")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(0); n < 50; n++ {
				got, err := eval(c, n)
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := c.Lookup(l.Num, I64Value(c.I64, (n-1)-(10-n)))
				if !c.Eq(got, want) {
					t.Errorf("clone %d: (- (- %d 1) (- 10 %d)) built the wrong Num", i, n, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
