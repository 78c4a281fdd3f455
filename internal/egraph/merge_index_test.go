package egraph

// Tests for the builtin merge functions (the lattice operations behind
// analysis tables) and for the per-argument match indexes: they must be
// dropped by a Rebuild that changes their table's rows and rebuilt over
// canonical rows, including the output-column index keyed by outCanon,
// and a rebuilt index refills the storage of the one it replaces.

import (
	"sync"
	"testing"
)

func TestMergeFnSemantics(t *testing.T) {
	g := New()
	v := func(x int64) Value { return I64Value(g.I64, x) }
	check := func(name string, fn MergeFn, old, new, want int64) {
		t.Helper()
		got, err := fn(v(old), v(new))
		if err != nil {
			t.Fatalf("%s(%d, %d): %v", name, old, new, err)
		}
		if got.AsI64() != want {
			t.Errorf("%s(%d, %d) = %d, want %d", name, old, new, got.AsI64(), want)
		}
	}
	check("MergeMinI64", MergeMinI64, 3, 5, 3)
	check("MergeMinI64", MergeMinI64, 7, 2, 2)
	check("MergeMinI64", MergeMinI64, -4, -4, -4)
	check("MergeMaxI64", MergeMaxI64, 3, 5, 5)
	check("MergeMaxI64", MergeMaxI64, 7, 2, 7)
	check("MergeOverwrite", MergeOverwrite, 3, 5, 5)
	check("MergeOverwrite", MergeOverwrite, 5, 3, 3)
	check("MergeMustEqual", MergeMustEqual, 9, 9, 9)
	if _, err := MergeMustEqual(v(1), v(2)); err == nil {
		t.Error("MergeMustEqual(1, 2) succeeded, want conflict error")
	}
}

// TestMergeFnsThroughSetAndRebuild drives each merge through both entry
// points: conflicting Set calls on the same row, and the rebuild-time
// collision when two rows' argument tuples become equal after a union.
func TestMergeFnsThroughSetAndRebuild(t *testing.T) {
	g := New()
	ty, err := g.AddEqSort("T")
	if err != nil {
		t.Fatal(err)
	}
	mk, _ := g.DeclareFunction(&Function{Name: "mk", Params: []*Sort{g.I64}, Out: ty, Cost: 1})
	lo, _ := g.DeclareFunction(&Function{Name: "lo", Params: []*Sort{ty}, Out: g.I64, Merge: MergeMinI64})
	hi, _ := g.DeclareFunction(&Function{Name: "hi", Params: []*Sort{ty}, Out: g.I64, Merge: MergeMaxI64})
	last, _ := g.DeclareFunction(&Function{Name: "last", Params: []*Sort{ty}, Out: g.I64, Merge: MergeOverwrite})
	eq, _ := g.DeclareFunction(&Function{Name: "eq", Params: []*Sort{ty}, Out: g.I64}) // default MergeMustEqual

	a, _ := g.Insert(mk, I64Value(g.I64, 1))
	set := func(f *Function, arg Value, x int64) {
		t.Helper()
		if err := g.Set(f, []Value{arg}, I64Value(g.I64, x)); err != nil {
			t.Fatalf("set %s = %d: %v", f.Name, x, err)
		}
	}
	want := func(f *Function, arg Value, x int64) {
		t.Helper()
		got, ok := g.Lookup(f, arg)
		if !ok || got.AsI64() != x {
			t.Errorf("%s = %v (present %v), want %d", f.Name, got.AsI64(), ok, x)
		}
	}
	set(lo, a, 5)
	set(lo, a, 3)
	set(lo, a, 9)
	want(lo, a, 3)
	set(hi, a, 5)
	set(hi, a, 9)
	set(hi, a, 2)
	want(hi, a, 9)
	set(last, a, 1)
	set(last, a, 7)
	want(last, a, 7)
	set(eq, a, 4)
	set(eq, a, 4)
	want(eq, a, 4)
	if err := g.Set(eq, []Value{a}, I64Value(g.I64, 5)); err == nil {
		t.Error("conflicting Set on a MergeMustEqual table succeeded")
	}

	// Rebuild-time merges: distinct argument classes that a union makes
	// equal must collide and resolve through the same merge functions.
	b, _ := g.Insert(mk, I64Value(g.I64, 2))
	set(lo, b, 1)
	set(hi, b, 100)
	set(last, b, 8)
	if _, err := g.Union(a, b); err != nil {
		t.Fatal(err)
	}
	g.Rebuild()
	want(lo, g.Find(a), 1)
	want(hi, g.Find(a), 100)
	// The overwrite survivor is the collision survivor's value — which
	// one that is is an ordering detail, but it must be one of the two.
	if got, ok := g.Lookup(last, g.Find(a)); !ok || (got.AsI64() != 7 && got.AsI64() != 8) {
		t.Errorf("last = %v (present %v), want 7 or 8", got.AsI64(), ok)
	}
	checkCongruenceInvariants(t, g)
}

// TestArgIndexRefreshAfterUnion is the regression test for stale
// per-argument indexes: after a union and Rebuild, every column index
// must be dropped, and a rebuilt index must group rows under the
// surviving canonical root — argument columns by canonical argument
// bits, the output column by outCanon.
func TestArgIndexRefreshAfterUnion(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a, b, c, d := l.num(t, 1), l.num(t, 2), l.num(t, 3), l.num(t, 4)
	ab := l.app(t, l.Add, a, b)
	cd := l.app(t, l.Add, c, d)
	g.Rebuild()
	tab := g.tab(l.Add)
	idx := tab.buildArgIndex(0)
	if len(idx.rowsOf(g.Find(a).Bits)) != 1 || len(idx.rowsOf(g.Find(c).Bits)) != 1 {
		t.Fatalf("fresh col-0 index lists %d values", idx.values())
	}
	oldRootA, oldRootC := g.Find(a).Bits, g.Find(c).Bits

	if _, err := g.Union(a, c); err != nil {
		t.Fatal(err)
	}
	// While dirty, the cached index is stale (it still keys the old
	// roots), and matching refuses a dirty graph. Rebuild must drop every
	// cached column of a table whose rows it changed.
	g.Rebuild()
	for i := range tab.cols {
		if tab.cols[i].ready() != nil {
			t.Fatalf("column %d index survived Rebuild", i)
		}
	}
	idx = tab.buildArgIndex(0)
	root := g.Find(a).Bits
	if len(idx.rowsOf(root)) != 2 {
		t.Fatalf("rebuilt col-0 index has %d rows under root %d, want 2", len(idx.rowsOf(root)), root)
	}
	loser := oldRootA
	if root == oldRootA {
		loser = oldRootC
	}
	if len(idx.rowsOf(loser)) != 0 {
		t.Errorf("rebuilt col-0 index still keys the unioned-away root %d", loser)
	}

	// Output-column index: after unioning the two sums, both rows'
	// outCanon move to the shared root and the rebuilt out index must
	// list both rows under it.
	if _, err := g.Union(ab, cd); err != nil {
		t.Fatal(err)
	}
	g.Rebuild()
	outIdx := tab.buildArgIndex(2)
	outRoot := g.Find(ab).Bits
	n := 0
	for i := range tab.rows {
		if !tab.rows[i].dead {
			n++
			if tab.rows[i].outCanon != outRoot {
				t.Errorf("row %d outCanon = %d, want %d", i, tab.rows[i].outCanon, outRoot)
			}
		}
	}
	if len(outIdx.rowsOf(outRoot)) != n {
		t.Errorf("out-column index has %d rows under root %d, want %d", len(outIdx.rowsOf(outRoot)), outRoot, n)
	}
}

// TestArgIndexConcurrentBuild: racing builders on the same and different
// columns all observe one consistent index (the per-column double-checked
// lock); run with -race this guards the atomic publication.
func TestArgIndexConcurrentBuild(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	for i := int64(0); i < 100; i++ {
		l.app(t, l.Add, l.num(t, i), l.num(t, i+1))
	}
	g.Rebuild()
	tab := g.tab(l.Add)
	var wg sync.WaitGroup
	results := make([]*colIndex, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = tab.buildArgIndex(w % 3)
		}(w)
	}
	wg.Wait()
	for w := 3; w < 16; w++ {
		if results[w] != results[w%3] {
			t.Fatalf("racing builders for column %d got different indexes", w%3)
		}
	}
}

// TestRebuildKeepsUntouchedIndexes: Rebuild drops the column indexes of
// a table whose rows it re-keys or re-points, and keeps those of a table
// it leaves alone; a dropped index keeps its storage, which the next
// build refills without allocating.
func TestRebuildKeepsUntouchedIndexes(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a, b, c := l.num(t, 1), l.num(t, 2), l.num(t, 3)
	for i := int64(0); i < 20; i++ {
		l.app(t, l.Mul, l.num(t, 10+i), l.num(t, 40+i))
	}
	l.app(t, l.Add, a, c)
	l.app(t, l.Add, b, c)
	g.Rebuild()
	add, mul := g.tab(l.Add), g.tab(l.Mul)
	addIdx, mulIdx := add.buildArgIndex(0), mul.buildArgIndex(0)
	if _, err := g.Union(a, b); err != nil {
		t.Fatal(err)
	}
	g.Rebuild()
	if mul.cols[0].ready() != mulIdx {
		t.Error("Rebuild dropped the index of a table whose rows it did not change")
	}
	if add.cols[0].ready() != nil {
		t.Fatal("Rebuild kept the index of a table whose rows it re-keyed")
	}
	if n := testing.AllocsPerRun(1, func() {
		add.invalidateArgIndex()
		if add.buildArgIndex(0) != addIdx {
			t.Fatal("a rebuilt index moved out of its column's storage")
		}
	}); n != 0 {
		t.Errorf("rebuilding an index into its storage made %.0f allocations, want 0", n)
	}
	if rows := addIdx.rowsOf(g.Find(a).Bits); len(rows) != 1 {
		t.Errorf("rebuilt index lists %d rows under the merged class, want 1", len(rows))
	}
	clone := g.Clone()
	cols := clone.tab(l.Add).cols
	for i := range cols {
		if cols[i].index.Load() != nil {
			t.Fatalf("clone's column %d starts with index storage", i)
		}
	}
}

// values counts the distinct values c indexes.
func (c *colIndex) values() int {
	n := 0
	for _, s := range c.slots {
		if s.n != 0 {
			n++
		}
	}
	return n
}
