package egraph

import (
	"slices"
	"testing"
)

// exprLang builds the little arithmetic language from §2.3 of the paper:
// Num, Var, Add, Mul, Div, Shl over an Expr eq-sort.
type exprLang struct {
	g                            *EGraph
	Expr                         *Sort
	Num, Var, Add, Mul, Div, Shl *Function
}

func newExprLang(t testing.TB) *exprLang {
	t.Helper()
	g := New()
	expr, err := g.AddEqSort("Expr")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, cost int64, params ...*Sort) *Function {
		f, err := g.DeclareFunction(&Function{Name: name, Params: params, Out: expr, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	l := &exprLang{g: g, Expr: expr}
	l.Num = mk("Num", 1, g.I64)
	l.Var = mk("Var", 1, g.Str)
	l.Add = mk("Add", 1, expr, expr)
	l.Mul = mk("Mul", 2, expr, expr)
	l.Div = mk("Div", 2, expr, expr)
	l.Shl = mk("Shl", 1, expr, expr)
	return l
}

func (l *exprLang) num(t testing.TB, v int64) Value {
	t.Helper()
	val, err := l.g.Insert(l.Num, I64Value(l.g.I64, v))
	if err != nil {
		t.Fatal(err)
	}
	return val
}

func (l *exprLang) app(t testing.TB, f *Function, args ...Value) Value {
	t.Helper()
	val, err := l.g.Insert(f, args...)
	if err != nil {
		t.Fatal(err)
	}
	return val
}

func TestInsertHashCons(t *testing.T) {
	l := newExprLang(t)
	a := l.num(t, 2)
	b := l.num(t, 2)
	if a.Bits != b.Bits {
		t.Errorf("identical nodes got distinct classes: %d vs %d", a.Bits, b.Bits)
	}
	c := l.num(t, 3)
	if a.Bits == c.Bits {
		t.Error("distinct nodes share a class")
	}
	if got := l.g.NumNodes(); got != 2 {
		t.Errorf("NumNodes = %d, want 2", got)
	}
}

func TestUnionAndFind(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a := l.num(t, 1)
	b := l.num(t, 2)
	if g.Eq(a, b) {
		t.Fatal("distinct classes Eq before union")
	}
	if _, err := g.Union(a, b); err != nil {
		t.Fatal(err)
	}
	if !g.Eq(a, b) {
		t.Error("classes not Eq after union")
	}
}

// TestCongruence checks upward merging: if x ~ y then f(x) ~ f(y) after
// Rebuild.
func TestCongruence(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	x := l.num(t, 1)
	y := l.num(t, 2)
	two := l.num(t, 3)
	fx := l.app(t, l.Mul, x, two)
	fy := l.app(t, l.Mul, y, two)
	if g.Eq(fx, fy) {
		t.Fatal("parents equal before child union")
	}
	if _, err := g.Union(x, y); err != nil {
		t.Fatal(err)
	}
	g.Rebuild()
	if !g.Eq(fx, fy) {
		t.Error("congruence not restored: Mul(x,2) != Mul(y,2) after x~y")
	}
	// The two rows must have collapsed into one live node.
	live := 0
	g.ForEachRow(l.Mul, func(args []Value, out Value) bool { live++; return true })
	if live != 1 {
		t.Errorf("live Mul rows = %d, want 1", live)
	}
}

// TestCongruenceChain exercises multi-level congruence propagation.
func TestCongruenceChain(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a := l.num(t, 1)
	b := l.num(t, 2)
	fa := l.app(t, l.Shl, a, a)
	fb := l.app(t, l.Shl, b, b)
	ffa := l.app(t, l.Add, fa, fa)
	ffb := l.app(t, l.Add, fb, fb)
	if _, err := g.Union(a, b); err != nil {
		t.Fatal(err)
	}
	g.Rebuild()
	if !g.Eq(fa, fb) || !g.Eq(ffa, ffb) {
		t.Error("two-level congruence failed")
	}
}

func TestInsertAfterUnionDedups(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a := l.num(t, 1)
	b := l.num(t, 2)
	g.Union(a, b)
	g.Rebuild()
	// Inserting Mul(a, a) and Mul(b, b) must now be the same node.
	m1 := l.app(t, l.Mul, a, a)
	m2 := l.app(t, l.Mul, b, b)
	if !g.Eq(m1, m2) {
		t.Error("insert after union did not dedup congruent nodes")
	}
}

func TestPrimitiveTableSetLookup(t *testing.T) {
	g := New()
	ty, _ := g.AddEqSort("Type")
	nrows, err := g.DeclareFunction(&Function{Name: "nrows", Params: []*Sort{ty}, Out: g.I64})
	if err != nil {
		t.Fatal(err)
	}
	mkTy, _ := g.DeclareFunction(&Function{Name: "T", Params: []*Sort{g.I64}, Out: ty, Cost: 1})
	t1, _ := g.Insert(mkTy, I64Value(g.I64, 7))
	if _, ok := g.Lookup(nrows, t1); ok {
		t.Fatal("lookup before set should fail")
	}
	if err := g.Set(nrows, []Value{t1}, I64Value(g.I64, 7)); err != nil {
		t.Fatal(err)
	}
	v, ok := g.Lookup(nrows, t1)
	if !ok || v.AsI64() != 7 {
		t.Fatalf("lookup = %v,%v want 7,true", v.AsI64(), ok)
	}
	// Setting the same value again is fine (must-equal merge).
	if err := g.Set(nrows, []Value{t1}, I64Value(g.I64, 7)); err != nil {
		t.Fatal(err)
	}
	// A conflicting set errors.
	if err := g.Set(nrows, []Value{t1}, I64Value(g.I64, 8)); err == nil {
		t.Error("conflicting Set should error with MergeMustEqual")
	}
}

func TestPrimitiveTableMergeAcrossUnion(t *testing.T) {
	g := New()
	ty, _ := g.AddEqSort("Type")
	mkTy, _ := g.DeclareFunction(&Function{Name: "T", Params: []*Sort{g.I64}, Out: ty, Cost: 1})
	cost, _ := g.DeclareFunction(&Function{Name: "c", Params: []*Sort{ty}, Out: g.I64, Merge: MergeMinI64})
	t1, _ := g.Insert(mkTy, I64Value(g.I64, 1))
	t2, _ := g.Insert(mkTy, I64Value(g.I64, 2))
	g.Set(cost, []Value{t1}, I64Value(g.I64, 10))
	g.Set(cost, []Value{t2}, I64Value(g.I64, 3))
	g.Union(t1, t2)
	g.Rebuild()
	v, ok := g.Lookup(cost, t1)
	if !ok || v.AsI64() != 3 {
		t.Errorf("after union, min-merged cost = %v,%v; want 3,true", v.AsI64(), ok)
	}
}

func TestVecInterningAndCanonicalization(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	vs := g.VecSortOf(l.Expr)
	a := l.num(t, 1)
	b := l.num(t, 2)
	v1 := g.InternVec(vs, []Value{a, b})
	v2 := g.InternVec(vs, []Value{a, b})
	if v1.Bits != v2.Bits {
		t.Error("identical vecs not interned to one value")
	}
	c := l.num(t, 3)
	v3 := g.InternVec(vs, []Value{a, c})
	if v1.Bits == v3.Bits {
		t.Error("distinct vecs interned to one value")
	}
	// After b ~ c, the canonical forms of v1 and v3 must coincide.
	g.Union(b, c)
	g.Rebuild()
	if g.Find(v1).Bits != g.Find(v3).Bits {
		t.Error("vec canonicalization after union failed")
	}
}

// TestVecChildCongruence: nodes that take vectors as children must merge
// when their vector contents become equal, also when a vector of another
// element sort whose elements have the same bits was interned first.
func TestVecChildCongruence(t *testing.T) {
	for _, shadowed := range []bool{false, true} {
		l := newExprLang(t)
		g := l.g
		vs := g.VecSortOf(l.Expr)
		blk, err := g.DeclareFunction(&Function{Name: "Blk", Params: []*Sort{vs}, Out: l.Expr, Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := l.num(t, 1)
		b := l.num(t, 2)
		if shadowed {
			g.InternVec(g.VecSortOf(g.I64), []Value{I64Value(g.I64, int64(a.Bits)), I64Value(g.I64, int64(b.Bits))})
		}
		v1 := g.InternVec(vs, []Value{a, b})
		v2 := g.InternVec(vs, []Value{b, b})
		if elems := g.VecElems(v1); !slices.Equal(elems, []Value{a, b}) {
			t.Errorf("shadowed=%v: vector [a b] holds %v", shadowed, elems)
		}
		n1 := l.app(t, blk, v1)
		n2 := l.app(t, blk, v2)
		if g.Eq(n1, n2) {
			t.Fatalf("shadowed=%v: distinct blocks equal too early", shadowed)
		}
		g.Union(a, b)
		g.Rebuild()
		if !g.Eq(n1, n2) {
			t.Errorf("shadowed=%v: blocks over congruent vectors did not merge", shadowed)
		}
	}
}

func TestStringInterning(t *testing.T) {
	g := New()
	a := g.InternString("hello")
	b := g.InternString("hello")
	c := g.InternString("world")
	if a.Bits != b.Bits {
		t.Error("same string interned twice")
	}
	if a.Bits == c.Bits {
		t.Error("distinct strings collided")
	}
	if g.StringOf(a) != "hello" {
		t.Errorf("StringOf = %q", g.StringOf(a))
	}
}

func TestDeclareErrors(t *testing.T) {
	g := New()
	if _, err := g.AddEqSort("i64"); err == nil {
		t.Error("redeclaring builtin sort should fail")
	}
	e, _ := g.AddEqSort("E")
	if _, err := g.AddEqSort("E"); err == nil {
		t.Error("duplicate sort should fail")
	}
	if _, err := g.DeclareFunction(&Function{Name: "f", Params: nil, Out: e}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.DeclareFunction(&Function{Name: "f", Params: nil, Out: e}); err == nil {
		t.Error("duplicate function should fail")
	}
}

func TestInsertArityAndSortChecks(t *testing.T) {
	l := newExprLang(t)
	a := l.num(t, 1)
	if _, err := l.g.Insert(l.Add, a); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := l.g.Insert(l.Num, a); err == nil {
		t.Error("wrong sort accepted")
	}
}

func TestUnionAcrossSortsFails(t *testing.T) {
	g := New()
	s1, _ := g.AddEqSort("A")
	s2, _ := g.AddEqSort("B")
	f1, _ := g.DeclareFunction(&Function{Name: "a", Out: s1, Cost: 1})
	f2, _ := g.DeclareFunction(&Function{Name: "b", Out: s2, Cost: 1})
	v1, _ := g.Insert(f1)
	v2, _ := g.Insert(f2)
	if _, err := g.Union(v1, v2); err == nil {
		t.Error("union across sorts should fail")
	}
}
