package egraph

import (
	"strings"
	"testing"
)

func TestWriteDot(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a, _ := g.Insert(l.Var, g.InternString("a"))
	two := l.num(t, 2)
	mul := l.app(t, l.Mul, a, two)
	one := l.num(t, 1)
	shl := l.app(t, l.Shl, a, one)
	g.Union(mul, shl)
	g.Rebuild()

	var b strings.Builder
	if err := g.WriteDot(&b); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{
		"digraph egraph", "compound=true",
		"cluster_",           // class clusters
		`label="Var \"a\""`,  // leaf with string payload
		`label="Num 2"`,      // leaf with int payload
		"n_Mul_0", "n_Shl_0", // both nodes of the merged class
		"->", // edges
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
	// Mul and Shl must be inside the same cluster (merged class).
	mulIdx := strings.Index(dot, "n_Mul_0 [")
	shlIdx := strings.Index(dot, "n_Shl_0 [")
	sep := dot[min(mulIdx, shlIdx):max(mulIdx, shlIdx)]
	if strings.Contains(sep, "subgraph") {
		t.Error("merged nodes rendered in different clusters")
	}
}

func TestWriteDotVecChildren(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	vs := g.VecSortOf(l.Expr)
	blk, _ := g.DeclareFunction(&Function{Name: "Blk", Params: []*Sort{vs}, Out: l.Expr, Cost: 1})
	a := l.num(t, 1)
	v := g.InternVec(vs, []Value{a})
	if _, err := g.Insert(blk, v); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := g.WriteDot(&b); err != nil {
		t.Fatal(err)
	}
	// The Blk node must have an edge into the Num class through the vector.
	if !strings.Contains(b.String(), "n_Blk_0 -> n_Num_0") {
		t.Errorf("vector child edge missing:\n%s", b.String())
	}
}

// TestCostOverrideSurvivesRebuild: a per-node cost override installed
// before a union must still apply after rebuilding re-canonicalizes the
// node's arguments: the override moves with its row.
func TestCostOverrideSurvivesRebuild(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a := l.num(t, 1)
	b := l.num(t, 2)
	cheapAlt := l.num(t, 3)

	// Node Mul(a, a) with an override making it very expensive.
	mul := l.app(t, l.Mul, a, a)
	if err := g.SetNodeCost(l.Mul, []Value{a, a}, 500); err != nil {
		t.Fatal(err)
	}
	// Give the class a cheap alternative so extraction has a choice.
	g.Union(mul, cheapAlt)
	// Union b ~ a makes b's class the root, so rebuilding
	// re-canonicalizes the Mul row's arguments; the override must stay on
	// the row.
	g.Union(b, a)
	g.Rebuild()
	if g.Find(a).Bits == a.Bits {
		t.Fatal("a is still canonical, so the Mul row was not re-canonicalized")
	}

	ex := NewExtractor(g)
	term, cost, err := ex.Extract(mul)
	if err != nil {
		t.Fatal(err)
	}
	if term.Head() != "Num" {
		t.Errorf("extraction picked %s; the override should make Mul too expensive", term)
	}
	if cost >= 500 {
		t.Errorf("cost = %d, expected the cheap alternative", cost)
	}
	// The cheap alternative hides the override from extraction, so read
	// it from the row now keyed by the canonical arguments.
	if c, ok := overrideOf(g, l.Mul, a, a); !ok || c != 500 {
		t.Errorf("Mul(a, a) override = %d (row found %v), want 500", c, ok)
	}
}

func TestSortsAndLookups(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	if _, ok := g.SortByName("Expr"); !ok {
		t.Error("SortByName(Expr) failed")
	}
	if _, ok := g.SortByName("ghost"); ok {
		t.Error("SortByName(ghost) succeeded")
	}
	if _, ok := g.FunctionByName("Mul"); !ok {
		t.Error("FunctionByName(Mul) failed")
	}
	sorts := g.Sorts()
	if len(sorts) < 6 { // builtins + Expr
		t.Errorf("Sorts() = %d entries", len(sorts))
	}
	for i := 1; i < len(sorts); i++ {
		if sorts[i-1].Name > sorts[i].Name {
			t.Error("Sorts() not sorted")
		}
	}
	before := g.UnionCount()
	a := l.num(t, 1)
	b := l.num(t, 2)
	g.Union(a, b)
	if g.UnionCount() != before+1 {
		t.Error("UnionCount not incremented")
	}
}
