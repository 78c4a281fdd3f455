package egraph

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestHashConsHitDoesNotAllocate pins the allocation-free hot path: a
// probe that finds what it looks for allocates nothing, whether it is an
// Insert of an existing node, an InternVec of an interned vector, a
// SetNodeCost that keeps the existing cheaper override, a compiled rule
// application whose terms all exist, nested primitive applications
// included, or a Rebuild with nothing to repair.
func TestHashConsHitDoesNotAllocate(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	vecSort := g.VecSortOf(l.Expr)
	sum, err := g.DeclareFunction(&Function{Name: "Sum", Params: []*Sort{vecSort}, Out: l.Expr})
	if err != nil {
		t.Fatal(err)
	}
	weight, err := g.DeclareFunction(&Function{Name: "weight", Params: []*Sort{l.Expr}, Out: g.I64})
	if err != nil {
		t.Fatal(err)
	}
	a, b := l.num(t, 1), l.num(t, 2)
	root := l.app(t, l.Mul, a, b)
	elems := []Value{a, b}
	vec := g.InternVec(vecSort, elems)
	args := []Value{a, b}
	if err := g.SetNodeCost(l.Add, args, 3); err != nil {
		t.Fatal(err)
	}

	// (rule ((= root (Mul x y)))
	//       ((let s (Add x y)) (union root (Mul x y)) (set (weight s) 7)
	//        (unstable-cost (Add x y) 5) (Sum (vec-of x y))
	//        (unstable-cost (Add x y) (* (* 2 3) 7))))
	v := func(slot int) *ATerm { return &ATerm{Kind: AVar, Slot: slot} }
	lit := func(n int64) *ATerm { return &ATerm{Kind: ALit, Lit: I64Value(g.I64, n)} }
	mul := &Prim{Name: "*", Apply: func(g *EGraph, args []Value) (Value, bool) {
		return I64Value(g.I64, args[0].AsI64()*args[1].AsI64()), true
	}}
	times := func(a, b *ATerm) *ATerm { return &ATerm{Kind: APrim, Prim: mul, Args: []*ATerm{a, b}} }
	rule := &Rule{
		Name:     "all-terms-exist",
		Premises: []Premise{&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)}},
		Actions: []Action{
			&LetAction{Slot: 3, T: &ATerm{Kind: AApp, Fn: l.Add, Args: []*ATerm{v(0), v(1)}}},
			&UnionAction{A: v(2), B: &ATerm{Kind: AApp, Fn: l.Mul, Args: []*ATerm{v(0), v(1)}}},
			&SetAction{Fn: weight, Args: []*ATerm{v(3)}, Out: &ATerm{Kind: ALit, Lit: I64Value(g.I64, 7)}},
			&CostAction{Fn: l.Add, Args: []*ATerm{v(0), v(1)}, Cost: &ATerm{Kind: ALit, Lit: I64Value(g.I64, 5)}},
			&InsertAction{T: &ATerm{Kind: AApp, Fn: sum, Args: []*ATerm{{Kind: AVec, VecSort: vecSort, Args: []*ATerm{v(0), v(1)}}}}},
			&CostAction{Fn: l.Add, Args: []*ATerm{v(0), v(1)}, Cost: times(times(lit(2), lit(3)), lit(7))},
		},
		NumSlots: 4,
	}
	binds := []Value{a, b, root, {}}
	// The first application creates the weight and Sum rows; the Add row
	// exists, because SetNodeCost inserted it to hold the override.
	if err := g.ApplyActions(rule, binds); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Insert", func() {
			if out, err := g.Insert(l.Mul, a, b); err != nil || out != root {
				t.Fatalf("Insert hit = %v, %v; want %v", out, err, root)
			}
		}},
		{"InternVec", func() {
			if got := g.InternVec(vecSort, elems); got != vec {
				t.Fatalf("InternVec hit = %v; want %v", got, vec)
			}
		}},
		{"SetNodeCost", func() {
			if err := g.SetNodeCost(l.Add, args, 5); err != nil {
				t.Fatal(err)
			}
		}},
		{"ApplyActions", func() {
			if err := g.ApplyActions(rule, binds); err != nil {
				t.Fatal(err)
			}
		}},
		// Nothing to repair: no row is rewritten.
		{"Rebuild", func() { g.Rebuild() }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", tc.name, n)
		}
	}
	if c, ok := overrideOf(g, l.Add, a, b); !ok || c != 3 {
		t.Errorf("cost override = %d (row found %v), want the cheaper 3", c, ok)
	}
}

// TestRowIndexMatchesScan drives seeded random inserts, unions and
// Rebuilds through enough growth and collapse to grow the row indexes
// several times and (without proof recording) compact the Add table at
// least once. After every Rebuild, each live row is found by its args,
// and every probe — canonical tuples and raw, possibly stale ones alike —
// agrees with a linear scan of the live rows, so no stale entry or dead
// row is ever returned; and NumClasses equals the number of distinct
// classes of live constructor rows, in the graph and in its clone. Where
// stale entries land depends on the per-process hash seed, so each mode
// runs several sequences.
func TestRowIndexMatchesScan(t *testing.T) {
	for _, proofs := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("proofs=%v/seed=%d", proofs, seed), func(t *testing.T) {
				rowIndexTrial(t, proofs, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func rowIndexTrial(t *testing.T, proofs bool, rng *rand.Rand) {
	l := newExprLang(t)
	g := l.g
	if proofs {
		g.EnableExplanations()
	}
	add := g.tab(l.Add)
	grows, compactions := 0, 0
	watch := func(op func()) {
		size, rows := len(add.index), len(add.rows)
		op()
		if len(add.index) > size {
			grows++
		}
		if len(add.rows) < rows {
			compactions++
		}
	}
	// Most arguments are one of the leaves, so unioning leaves (from round
	// 8 on) collapses many rows at once.
	var vals []Value
	const leaves = 32
	for i := 0; i < leaves; i++ {
		vals = append(vals, l.num(t, int64(i)))
	}
	pick := func() Value { return vals[rng.Intn(len(vals))] }
	leaf := func() Value { return vals[rng.Intn(leaves)] }
	for round := 0; round < 16; round++ {
		for k := 0; k < 120; k++ {
			f := l.Add
			if k%3 == 0 {
				f = l.Mul
			}
			x, y := leaf(), leaf()
			if k%4 == 0 {
				y = pick()
			}
			watch(func() { vals = append(vals, l.app(t, f, x, y)) })
		}
		for k := 0; k < 4; k++ {
			a, b := pick(), pick()
			if round >= 8 {
				a, b = leaf(), leaf()
			}
			if _, err := g.Union(a, b); err != nil {
				t.Fatal(err)
			}
		}
		watch(func() { g.Rebuild() })
		for _, f := range []*Function{l.Num, l.Add, l.Mul} {
			checkRowIndex(t, g, f, rng, vals)
		}
		if got, want := g.NumClasses(), scanClasses(g); got != want {
			t.Fatalf("round %d: NumClasses = %d, live rows have %d classes", round, got, want)
		}
	}
	if got, want := g.Clone().NumClasses(), g.NumClasses(); got != want {
		t.Errorf("clone NumClasses = %d, want %d", got, want)
	}
	if grows < 3 {
		t.Errorf("Add index grew %d times, want at least 3", grows)
	}
	if proofs && compactions != 0 {
		t.Errorf("Add table compacted %d times under proof recording", compactions)
	}
	if !proofs && compactions == 0 {
		t.Error("Add table never compacted")
	}
}

// scanClasses counts the distinct canonical classes of g's live
// constructor rows.
func scanClasses(g *EGraph) int {
	seen := make(map[uint32]bool)
	for _, f := range g.funcs {
		if !f.IsConstructor() {
			continue
		}
		for _, r := range g.tab(f).rows {
			if !r.dead {
				seen[g.uf.Find(uint32(r.out.Bits))] = true
			}
		}
	}
	return len(seen)
}

// checkRowIndex asserts that f's row index agrees with a linear scan of
// its live rows.
func checkRowIndex(t *testing.T, g *EGraph, f *Function, rng *rand.Rand, vals []Value) {
	t.Helper()
	tab := g.tab(f)
	scan := func(args []Value) (int, bool) {
		for r := range tab.rows {
			if !tab.rows[r].dead && sameBits(tab.argsOf(r), args) {
				return r, true
			}
		}
		return 0, false
	}
	for r := range tab.rows {
		if tab.rows[r].dead {
			continue
		}
		if got, ok := tab.lookupRow(tab.argsOf(r)); !ok || got != r {
			t.Fatalf("%s: live row %d found as %d, %v", f.Name, r, got, ok)
		}
	}
	for k := 0; k < 200; k++ {
		args := make([]Value, f.Arity())
		for i, s := range f.Params {
			if s.Kind == KindI64 {
				args[i] = I64Value(s, int64(rng.Intn(40)))
				continue
			}
			args[i] = vals[rng.Intn(len(vals))]
			if k%2 == 0 {
				args[i] = g.Find(args[i])
			}
		}
		got, ok := tab.lookupRow(args)
		want, wantOK := scan(args)
		if ok != wantOK || got != want {
			t.Fatalf("%s%v: index found row %d (%v), scan found %d (%v)", f.Name, args, got, ok, want, wantOK)
		}
	}
}

// TestVecPoolMatchesMap interns seeded random vectors (lengths 0 to 10,
// many of them repeated, each of one of two element sorts whose elements
// draw from the same bits) through enough growth to rehash the pool's
// index several times. Every vector gets the number a map keyed by its
// elements' sorts and bits gives: the next unused number the first time,
// the same number after. A clone of the pool numbers on from the same
// point and leaves the original untouched.
func TestVecPoolMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := newVecPool()
	want := map[string]uint32{}
	check := func(p *vecPool, want map[string]uint32, elems []Value) {
		t.Helper()
		var key []byte
		for _, e := range elems {
			key = binary.LittleEndian.AppendUint32(key, e.sort)
			key = binary.LittleEndian.AppendUint64(key, e.Bits)
		}
		id, seen := want[string(key)]
		if !seen {
			id = uint32(len(want))
			want[string(key)] = id
		}
		if got := p.intern(elems); got != id {
			t.Fatalf("intern %v = %d, want %d (seen before: %v)", elems, got, id, seen)
		}
		if got := p.get(id); !slices.Equal(got, elems) {
			t.Fatalf("vector %d holds %v, want %v", id, got, elems)
		}
	}
	sorts := []*Sort{{Name: "i64", Kind: KindI64, id: 1}, {Name: "E", Kind: KindEq, id: 2}}
	draw := func() []Value {
		s := sorts[rng.Intn(len(sorts))]
		elems := make([]Value, rng.Intn(11))
		for i := range elems {
			elems[i] = s.value(uint64(rng.Intn(3)))
		}
		return elems
	}
	for range 2000 {
		check(p, want, draw())
	}
	if len(want) < 500 {
		t.Fatalf("only %d distinct vectors: the index did not grow enough", len(want))
	}
	c, cwant := p.clone(), maps.Clone(want)
	n := len(p.vecs)
	for range 500 {
		check(c, cwant, draw())
	}
	if len(p.vecs) != n {
		t.Fatalf("interning into the clone grew the original from %d to %d vectors", n, len(p.vecs))
	}
	for range 500 {
		check(p, want, draw())
	}
}
