package egraph

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"dialegg/internal/sexp"
)

// appendArgBits appends the little-endian bits of each value to dst: a
// map key for an argument tuple.
func appendArgBits(dst []byte, args []Value) []byte {
	for _, a := range args {
		dst = binary.LittleEndian.AppendUint64(dst, a.Bits)
	}
	return dst
}

// randGraph builds a random expression DAG over the test language and
// performs random unions, returning the graph and all created values.
func randGraph(l *exprLang, rng *rand.Rand, nLeaves, nOps, nUnions int) []Value {
	g := l.g
	var vals []Value
	for i := 0; i < nLeaves; i++ {
		v, _ := g.Insert(l.Num, I64Value(g.I64, int64(rng.Intn(8))))
		vals = append(vals, v)
	}
	bins := []*Function{l.Add, l.Mul, l.Div, l.Shl}
	for i := 0; i < nOps; i++ {
		f := bins[rng.Intn(len(bins))]
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		v, _ := g.Insert(f, a, b)
		vals = append(vals, v)
	}
	for i := 0; i < nUnions; i++ {
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		g.Union(a, b)
	}
	g.Rebuild()
	return vals
}

// TestInvariantHashcons: after rebuilding, no two live rows of a function
// share canonical arguments.
func TestInvariantHashcons(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		l := newExprLang(t)
		randGraph(l, rng, 5, 30, 10)
		for _, f := range l.g.Functions() {
			seen := make(map[string]Value)
			l.g.ForEachRow(f, func(args []Value, out Value) bool {
				canon := make([]Value, len(args))
				for i, a := range args {
					canon[i] = l.g.Find(a)
				}
				key := string(appendArgBits(nil, canon))
				if prev, dup := seen[key]; dup {
					if l.g.Find(prev).Bits != l.g.Find(out).Bits {
						t.Fatalf("trial %d: congruence violated in %s: same args, different classes", trial, f.Name)
					}
					t.Fatalf("trial %d: duplicate live row in %s", trial, f.Name)
				}
				seen[key] = out
				return true
			})
		}
	}
}

// TestInvariantCongruence: for every pair of live rows with canonically
// equal argument tuples (across the whole history of unions), outputs are
// in the same class.
func TestInvariantCongruence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		l := newExprLang(t)
		vals := randGraph(l, rng, 4, 25, 8)
		g := l.g
		// Re-inserting any node with canonicalized children must land in
		// the canonical class.
		for _, f := range []*Function{l.Add, l.Mul} {
			g.ForEachRow(f, func(args []Value, out Value) bool {
				again, err := g.Insert(f, g.Find(args[0]), g.Find(args[1]))
				if err != nil {
					t.Fatal(err)
				}
				if !g.Eq(again, out) {
					t.Fatalf("trial %d: re-insertion of %s row diverged", trial, f.Name)
				}
				return true
			})
		}
		_ = vals
	}
}

// TestInvariantExtractCostConsistent: the extractor's reported cost equals
// the cost of the extracted term recomputed structurally, and extraction
// always terminates with a finite term.
func TestInvariantExtractCostConsistent(t *testing.T) {
	costs := map[string]int64{"Num": 1, "Var": 1, "Add": 1, "Mul": 2, "Div": 2, "Shl": 1}
	var termCost func(n *sexp.Node) int64
	termCost = func(n *sexp.Node) int64 {
		if n.Kind != sexp.KindList {
			return 0 // primitive leaf
		}
		total := costs[n.Head()]
		for _, a := range n.Args() {
			total += termCost(a)
		}
		return total
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		l := newExprLang(t)
		vals := randGraph(l, rng, 4, 20, 6)
		ex := NewExtractor(l.g)
		for _, v := range vals {
			term, cost, err := ex.Extract(v)
			if err != nil {
				t.Fatalf("trial %d: extract: %v", trial, err)
			}
			if got := termCost(term); got != cost {
				t.Fatalf("trial %d: extractor cost %d != recomputed %d for %s", trial, cost, got, term)
			}
		}
	}
}

// TestInvariantExtractionMinimal: on small graphs, the extractor's cost
// matches a brute-force minimum computed by value iteration over classes.
func TestInvariantExtractionMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 40; trial++ {
		l := newExprLang(t)
		vals := randGraph(l, rng, 3, 12, 5)
		g := l.g

		// Independent Bellman-Ford-style value iteration (the reference
		// implementation of minimal extraction cost).
		best := make(map[uint32]int64)
		type nodeRow struct {
			fn   *Function
			args []Value
			out  uint32
		}
		var rows []nodeRow
		for _, f := range g.Functions() {
			if !f.IsConstructor() {
				continue
			}
			g.ForEachRow(f, func(args []Value, out Value) bool {
				ca := make([]Value, len(args))
				for i, a := range args {
					ca[i] = g.Find(a)
				}
				rows = append(rows, nodeRow{fn: f, args: ca, out: uint32(g.Find(out).Bits)})
				return true
			})
		}
		for changed := true; changed; {
			changed = false
			for _, r := range rows {
				total := r.fn.Cost
				ok := true
				for _, a := range r.args {
					if a.Kind() == KindEq {
						c, seen := best[uint32(a.Bits)]
						if !seen {
							ok = false
							break
						}
						total += c
					}
				}
				if !ok {
					continue
				}
				if cur, seen := best[r.out]; !seen || total < cur {
					best[r.out] = total
					changed = true
				}
			}
		}

		ex := NewExtractor(g)
		for _, v := range vals {
			want, reachable := best[uint32(g.Find(v).Bits)]
			got, ok := ex.CostOf(v)
			if ok != reachable {
				t.Fatalf("trial %d: extractability mismatch", trial)
			}
			if ok && got != want {
				t.Fatalf("trial %d: extractor cost %d, reference %d", trial, got, want)
			}
		}
	}
}

// TestInvariantUnionsMonotone (quick): Find results are stable under
// further rebuilds when nothing changed.
func TestInvariantRebuildIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := newExprLangQuiet()
		vals := randGraph(l, rng, 3, 15, 6)
		g := l.g
		before := make([]uint64, len(vals))
		for i, v := range vals {
			before[i] = g.Find(v).Bits
		}
		if g.Rebuild() != 1 {
			return false // a second rebuild must converge in one pass
		}
		for i, v := range vals {
			if g.Find(v).Bits != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// newExprLangQuiet builds the test language without a testing.TB (for
// quick.Check closures).
func newExprLangQuiet() *exprLang {
	g := New()
	expr, err := g.AddEqSort("Expr")
	if err != nil {
		panic(err)
	}
	mk := func(name string, cost int64, params ...*Sort) *Function {
		f, err := g.DeclareFunction(&Function{Name: name, Params: params, Out: expr, Cost: cost})
		if err != nil {
			panic(err)
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

// BenchmarkEMatchIndexedVsScan is the ablation for the per-column match
// index: the same join with and without it. The indexed side joins on a
// shared variable, so its second premise probes the index; the scan side
// writes the join as a cross product of two table scans filtered by an
// equality primitive, which no index serves.
func BenchmarkEMatchIndexedVsScan(b *testing.B) {
	build := func() *exprLang {
		l := newExprLangQuiet()
		g := l.g
		// 2000 Mul nodes over distinct leaves; the join is Mul(Mul(x,y),z).
		prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
		for i := 1; i < 2000; i++ {
			leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
			prev, _ = g.Insert(l.Mul, prev, leaf)
		}
		g.Rebuild()
		return l
	}
	same := &Prim{Name: "same", Apply: func(g *EGraph, args []Value) (Value, bool) {
		return BoolValue(g.Bool, true), args[0].Bits == args[1].Bits
	}}
	run := func(b *testing.B, l *exprLang, r *Rule) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count := 0
			if err := l.g.Match(r, func([]Value) bool { count++; return true }); err != nil {
				b.Fatal(err)
			}
			if count != 1998 {
				b.Fatalf("count = %d", count)
			}
		}
	}

	b.Run("indexed", func(b *testing.B) {
		l := build()
		run(b, l, &Rule{
			Name: "join",
			Premises: []Premise{
				&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
				&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(2), VarAtom(3)}, Out: VarAtom(4)},
			},
			NumSlots: 5,
		})
	})
	b.Run("scan", func(b *testing.B) {
		l := build()
		run(b, l, &Rule{
			Name: "cross",
			Premises: []Premise{
				&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
				&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(5), VarAtom(3)}, Out: VarAtom(4)},
				&EvalPremise{Prim: same, Args: []Atom{VarAtom(2), VarAtom(5)}, Out: VarAtom(6)},
			},
			NumSlots: 7,
		})
	})
}

// BenchmarkExtractor measures the fixed-point extractor on a wide graph.
func BenchmarkExtractor(b *testing.B) {
	l := newExprLangQuiet()
	g := l.g
	prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
	for i := 1; i < 3000; i++ {
		leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
		if i%2 == 0 {
			prev, _ = g.Insert(l.Add, prev, leaf)
		} else {
			prev, _ = g.Insert(l.Mul, prev, leaf)
		}
	}
	g.Rebuild()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex := NewExtractor(g)
		if _, ok := ex.CostOf(prev); !ok {
			b.Fatal("unreachable root")
		}
	}
}
