package egraph

import (
	"testing"
)

// Primitives used by the tests; the egglog package registers the real set.
var testPrims = map[string]*Prim{
	"+": {Name: "+", Apply: func(g *EGraph, args []Value) (Value, bool) {
		return I64Value(g.I64, args[0].AsI64()+args[1].AsI64()), true
	}},
	"log2": {Name: "log2", Apply: func(g *EGraph, args []Value) (Value, bool) {
		n := args[0].AsI64()
		if n <= 0 {
			return Value{}, false
		}
		k := int64(0)
		for m := n; m > 1; m >>= 1 {
			k++
		}
		return I64Value(g.I64, k), true
	}},
	"<<": {Name: "<<", Apply: func(g *EGraph, args []Value) (Value, bool) {
		return I64Value(g.I64, args[0].AsI64()<<uint(args[1].AsI64())), true
	}},
}

// rewriteRule builds a flat rule: match lhs premises, union root with rhs.
func simpleRewrite(name string, premises []Premise, nslots int, root int, rhs *ATerm) *Rule {
	return &Rule{
		Name:     name,
		Premises: premises,
		Actions:  []Action{&UnionAction{A: &ATerm{Kind: AVar, Slot: root}, B: rhs}},
		NumSlots: nslots,
	}
}

// mulByTwoToShl encodes: (Mul ?x (Num 2)) => (Shl ?x (Num 1)).
// Slots: 0=?x, 1=root, 2=num2's class.
func mulByTwoToShl(l *exprLang) *Rule {
	return simpleRewrite("mul2-to-shl",
		[]Premise{
			&TablePremise{Fn: l.Num, Args: []Atom{LitAtom(I64Value(l.g.I64, 2))}, Out: VarAtom(2)},
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(2)}, Out: VarAtom(1)},
		},
		3, 1,
		&ATerm{Kind: AApp, Fn: l.Shl, Args: []*ATerm{
			{Kind: AVar, Slot: 0},
			{Kind: AApp, Fn: l.Num, Args: []*ATerm{{Kind: ALit, Lit: I64Value(l.g.I64, 1)}}},
		}})
}

// divCancel encodes: (Div ?x ?x) => (Num 1). Slots: 0=?x, 1=root.
func divCancel(l *exprLang) *Rule {
	return simpleRewrite("div-cancel",
		[]Premise{
			&TablePremise{Fn: l.Div, Args: []Atom{VarAtom(0), VarAtom(0)}, Out: VarAtom(1)},
		},
		2, 1,
		&ATerm{Kind: AApp, Fn: l.Num, Args: []*ATerm{{Kind: ALit, Lit: I64Value(l.g.I64, 1)}}})
}

// mulOne encodes: (Mul ?x (Num 1)) => ?x. Slots: 0=?x, 1=root, 2=one.
func mulOne(l *exprLang) *Rule {
	return simpleRewrite("mul-one",
		[]Premise{
			&TablePremise{Fn: l.Num, Args: []Atom{LitAtom(I64Value(l.g.I64, 1))}, Out: VarAtom(2)},
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(2)}, Out: VarAtom(1)},
		},
		3, 1,
		&ATerm{Kind: AVar, Slot: 0})
}

// mulDivAssoc encodes: (Div (Mul ?x ?y) ?z) => (Mul ?x (Div ?y ?z)).
// Slots: 0=?x, 1=?y, 2=?z, 3=inner mul class, 4=root.
func mulDivAssoc(l *exprLang) *Rule {
	return simpleRewrite("mul-div-assoc",
		[]Premise{
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(3)},
			&TablePremise{Fn: l.Div, Args: []Atom{VarAtom(3), VarAtom(2)}, Out: VarAtom(4)},
		},
		5, 4,
		&ATerm{Kind: AApp, Fn: l.Mul, Args: []*ATerm{
			{Kind: AVar, Slot: 0},
			{Kind: AApp, Fn: l.Div, Args: []*ATerm{{Kind: AVar, Slot: 1}, {Kind: AVar, Slot: 2}}},
		}})
}

func TestMatchSimple(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	x, _ := g.Insert(l.Var, g.InternString("a"))
	two := l.num(t, 2)
	l.app(t, l.Mul, x, two)

	r := mulByTwoToShl(l)
	var got [][]Value
	if err := g.Match(r, func(binds []Value) bool {
		got = append(got, binds)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("matches = %d, want 1", len(got))
	}
	if g.Find(got[0][0]).Bits != g.Find(x).Bits {
		t.Errorf("?x bound to wrong class")
	}
}

func TestMatchNoFalsePositive(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	x, _ := g.Insert(l.Var, g.InternString("a"))
	three := l.num(t, 3)
	l.app(t, l.Mul, x, three) // x*3, not x*2

	r := mulByTwoToShl(l)
	count := 0
	if err := g.Match(r, func([]Value) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("matches = %d, want 0", count)
	}
}

// TestMatchNonlinear checks that a repeated variable (Div ?x ?x) only
// matches when both children are the same e-class.
func TestMatchNonlinear(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a := l.num(t, 5)
	b := l.num(t, 7)
	l.app(t, l.Div, a, b) // should not match
	l.app(t, l.Div, a, a) // should match

	r := divCancel(l)
	count := 0
	if err := g.Match(r, func([]Value) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("matches = %d, want 1", count)
	}
	// After union a~b, Div(a,b) becomes Div(a,a): two rows collapse into
	// one matching row.
	g.Union(a, b)
	g.Rebuild()
	count = 0
	if err := g.Match(r, func([]Value) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("after union, matches = %d, want 1", count)
	}
}

func TestEvalPremiseGuards(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	// Rule: (Num ?n), (= ?k (log2 ?n)), (= ?n (<< 1 ?k)) -> union root with
	// (Shl (Num 1) (Num ?k)). Matches only powers of two.
	r := &Rule{
		Name: "pow2",
		Premises: []Premise{
			&TablePremise{Fn: l.Num, Args: []Atom{VarAtom(0)}, Out: VarAtom(1)},
			&EvalPremise{Prim: testPrims["log2"], Args: []Atom{VarAtom(0)}, Out: VarAtom(2)},
			&EvalPremise{Prim: testPrims["<<"], Args: []Atom{LitAtom(I64Value(g.I64, 1)), VarAtom(2)}, Out: VarAtom(0)},
		},
		Actions:  []Action{},
		NumSlots: 3,
	}
	l.num(t, 256)
	l.num(t, 100)
	l.num(t, 8)

	var ks []int64
	if err := g.Match(r, func(binds []Value) bool {
		ks = append(ks, binds[2].AsI64())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 {
		t.Fatalf("pow2 matches = %d, want 2 (256 and 8)", len(ks))
	}
	if ks[0] != 8 || ks[1] != 3 {
		t.Errorf("log2 results = %v, want [8 3]", ks)
	}
}

// TestFigure1 reproduces the paper's Figure 1 / §2.2 example: saturating
// (a*2)/2 with the four rules yields an e-graph where the root equals 'a',
// and extraction with op-count costs picks 'a'.
func TestFigure1(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a, _ := g.Insert(l.Var, g.InternString("a"))
	two := l.num(t, 2)
	mul := l.app(t, l.Mul, a, two)
	root := l.app(t, l.Div, mul, two)

	rules := []*Rule{divCancel(l), mulOne(l), mulByTwoToShl(l), mulDivAssoc(l)}
	report := g.Run(rules, RunConfig{})
	if !report.Saturated() {
		t.Fatalf("did not saturate: %+v", report.Stop)
	}
	if !g.Eq(root, a) {
		t.Error("(a*2)/2 not proven equal to a")
	}
	// The shift alternative must also be present: Shl(a, Num 1) exists and
	// equals Mul(a, 2).
	one := l.num(t, 1)
	shl, _ := g.Insert(l.Shl, a, one)
	if !g.Eq(shl, mul) {
		t.Error("a<<1 not in the same class as a*2")
	}

	ex := NewExtractor(g)
	term, cost, err := ex.Extract(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := term.String(); got != `(Var "a")` {
		t.Errorf("extracted %s, want (Var \"a\")", got)
	}
	if cost != 1 {
		t.Errorf("extracted cost = %d, want 1", cost)
	}
}

func TestRunnerFixpointNoRules(t *testing.T) {
	l := newExprLang(t)
	l.num(t, 1)
	report := l.g.Run(nil, RunConfig{})
	if !report.Saturated() || report.Iterations != 1 {
		t.Errorf("empty rule set: %+v", report)
	}
}

// TestRunnerNodeLimit: an ever-growing rule must be stopped by the node
// limit rather than looping forever.
func TestRunnerNodeLimit(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	// Rule: (Num ?n) -> insert (Num (+ ?n 1)): grows forever.
	r := &Rule{
		Name: "grow",
		Premises: []Premise{
			&TablePremise{Fn: l.Num, Args: []Atom{VarAtom(0)}, Out: VarAtom(1)},
			&EvalPremise{Prim: testPrims["+"], Args: []Atom{VarAtom(0), LitAtom(I64Value(g.I64, 1))}, Out: VarAtom(2)},
		},
		Actions: []Action{
			&InsertAction{T: &ATerm{Kind: AApp, Fn: l.Num, Args: []*ATerm{{Kind: AVar, Slot: 2}}}},
		},
		NumSlots: 3,
	}
	l.num(t, 0)
	report := g.Run([]*Rule{r}, RunConfig{NodeLimit: 50, IterLimit: 500})
	if report.Stop != StopNodeLimit {
		t.Errorf("stop = %v, want node limit", report.Stop)
	}
	if report.Nodes <= 50 {
		t.Errorf("nodes = %d, expected to exceed limit slightly", report.Nodes)
	}
}

func TestExtractorRespectsCosts(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a, _ := g.Insert(l.Var, g.InternString("a"))
	two := l.num(t, 2)
	mul := l.app(t, l.Mul, a, two) // cost 2 + children
	one := l.num(t, 1)
	shl := l.app(t, l.Shl, a, one) // cost 1 + children
	g.Union(mul, shl)
	g.Rebuild()

	ex := NewExtractor(g)
	term, _, err := ex.Extract(mul)
	if err != nil {
		t.Fatal(err)
	}
	if term.Head() != "Shl" {
		t.Errorf("extracted %s, want the cheaper Shl form", term)
	}

	// The node inserted first (the original program) loses to a cheaper
	// one a rewrite discovered later.
	g = New()
	expr, _ := g.AddEqSort("Expr")
	mk := func(name string, cost int64, params ...*Sort) *Function {
		f, err := g.DeclareFunction(&Function{Name: name, Params: params, Out: expr, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	xf, divf, shrf := mk("X", 1), mk("Div", 18, expr), mk("Shr", 1, expr)
	num, id := mk("Num", 1, g.I64), mk("Id", 1, expr)
	x, _ := g.Insert(xf)
	div, _ := g.Insert(divf, x)
	shr, _ := g.Insert(shrf, x)
	g.Union(div, shr)
	// Id(n) = n: the class of n holds a node whose child is the class
	// itself, which extraction must never choose.
	n, _ := g.Insert(num, I64Value(g.I64, 7))
	wrapped, _ := g.Insert(id, n)
	g.Union(wrapped, n)
	g.Rebuild()
	ex = NewExtractor(g)
	for _, c := range []struct {
		name string
		v    Value
		want string
		cost int64
	}{
		{"cheaper_rewrite_beats_first_inserted", div, "(Shr (X))", 2},
		{"self_loop", wrapped, "(Num 7)", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			term, cost, err := ex.Extract(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if term.String() != c.want || cost != c.cost {
				t.Errorf("extracted %s at cost %d, want %s at cost %d", term, cost, c.want, c.cost)
			}
		})
	}
}

// TestExtractorDAGCost: DAG cost counts each class the extracted term
// reaches once, under the active cost model, while the tree cost counts a
// shared class at every occurrence.
func TestExtractorDAGCost(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	// (Mul x x) nested four deep over (Var "a"): five classes, so the DAG
	// cost is 1 + 2*4 = 9, while the tree has 16 leaves and 15 Muls.
	x, _ := g.Insert(l.Var, g.InternString("a"))
	for i := 0; i < 4; i++ {
		x = l.app(t, l.Mul, x, x)
	}
	g.Rebuild()
	ex := NewExtractor(g)
	dag, err := ex.DAGCost(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, tree, _ := ex.Extract(x); dag != 9 || tree != 46 {
		t.Errorf("DAG cost %d, tree cost %d; want 9 and 46", dag, tree)
	}

	// An unstable-cost override counts in the DAG cost as in the tree cost.
	inner := l.app(t, l.Mul, g.Find(x), g.Find(x))
	g.Rebuild()
	if err := g.SetNodeCost(l.Mul, []Value{g.Find(x), g.Find(x)}, 50); err != nil {
		t.Fatal(err)
	}
	ex = NewExtractor(g)
	dag, err = ex.DAGCost(inner)
	if err != nil {
		t.Fatal(err)
	}
	if _, tree, _ := ex.Extract(inner); dag != 59 || tree != 50+2*46 {
		t.Errorf("with an override: DAG cost %d, tree cost %d; want 59 and %d", dag, tree, 50+2*46)
	}
}

func TestExtractorCostOverride(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a, _ := g.Insert(l.Var, g.InternString("a"))
	two := l.num(t, 2)
	mul := l.app(t, l.Mul, a, two)
	one := l.num(t, 1)
	shl := l.app(t, l.Shl, a, one)
	g.Union(mul, shl)
	g.Rebuild()
	// Make the Shl node artificially expensive: extraction must flip to Mul.
	if err := g.SetNodeCost(l.Shl, []Value{g.Find(a), g.Find(one)}, 100); err != nil {
		t.Fatal(err)
	}
	ex := NewExtractor(g)
	term, _, err := ex.Extract(mul)
	if err != nil {
		t.Fatal(err)
	}
	if term.Head() != "Mul" {
		t.Errorf("extracted %s, want Mul after cost override", term)
	}
}

func TestExtractVecChildren(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	vs := g.VecSortOf(l.Expr)
	blk, _ := g.DeclareFunction(&Function{Name: "Blk", Params: []*Sort{vs}, Out: l.Expr, Cost: 1})
	a := l.num(t, 1)
	b := l.num(t, 2)
	v := g.InternVec(vs, []Value{a, b})
	node, _ := g.Insert(blk, v)
	ex := NewExtractor(g)
	term, cost, err := ex.Extract(node)
	if err != nil {
		t.Fatal(err)
	}
	if got := term.String(); got != "(Blk (vec-of (Num 1) (Num 2)))" {
		t.Errorf("extracted %s", got)
	}
	if cost != 3 { // Blk 1 + Num 1 + Num 1
		t.Errorf("cost = %d, want 3", cost)
	}
}

func TestExtractUnextractable(t *testing.T) {
	g := New()
	e, _ := g.AddEqSort("E")
	helper, _ := g.DeclareFunction(&Function{Name: "helper", Out: e, Cost: 1, Unextractable: true})
	real, _ := g.DeclareFunction(&Function{Name: "real", Out: e, Cost: 5})
	h, _ := g.Insert(helper)
	r, _ := g.Insert(real)
	g.Union(h, r)
	g.Rebuild()
	ex := NewExtractor(g)
	term, _, err := ex.Extract(h)
	if err != nil {
		t.Fatal(err)
	}
	if term.Head() != "real" {
		t.Errorf("extracted %s, want real (helper is unextractable)", term)
	}
}

func TestMatchLimitStops(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	for i := int64(0); i < 20; i++ {
		l.num(t, i)
	}
	r := &Rule{
		Name:     "all-nums",
		Premises: []Premise{&TablePremise{Fn: l.Num, Args: []Atom{VarAtom(0)}, Out: VarAtom(1)}},
		NumSlots: 2,
	}
	count := 0
	if err := g.Match(r, func([]Value) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5 (stopped early)", count)
	}
}

func BenchmarkRebuildChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := newExprLang(b)
		g := l.g
		const n = 500
		prev := l.num(b, 0)
		leaves := make([]Value, 0, n)
		for j := 1; j < n; j++ {
			v := l.num(b, int64(j))
			leaves = append(leaves, v)
			prev = l.app(b, l.Add, prev, v)
		}
		b.StartTimer()
		for j := 1; j < len(leaves); j++ {
			g.Union(leaves[0], leaves[j])
		}
		g.Rebuild()
	}
}

func BenchmarkEMatchLinear(b *testing.B) {
	l := newExprLang(b)
	g := l.g
	two := l.num(b, 2)
	for i := int64(0); i < 1000; i++ {
		x := l.num(b, i+100)
		l.app(b, l.Mul, x, two)
	}
	r := mulByTwoToShl(l)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := g.Match(r, func([]Value) bool { count++; return true }); err != nil {
			b.Fatal(err)
		}
		if count != 1000 {
			b.Fatalf("count = %d", count)
		}
	}
}
