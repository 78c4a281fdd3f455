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
	if err := c1.SetNodeCost(l.Mul, []Value{a, b}, 9); err != nil {
		t.Fatal(err)
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
		if o.costs[l.Mul.id] != nil {
			t.Errorf("%s sees the clone's cost override", name)
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
