package egraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dialegg/internal/obs/journal"
)

// actLang is the language the compiled-action fuzz draws rules from: an
// expression sort with constructors of arity 0 to 10 (Wide is wider than
// argBufLen), a vector constructor, a relation, a primitive-output
// function with a min merge, and two primitives, one of which fails.
type actLang struct {
	g                              *EGraph
	Expr, Vec                      *Sort
	Num, Add, Mul, Neg, Wide, Sum  *Function
	Seen, Weight                   *Function
	plus, div                      *Prim
	wideArity, maxVec, matchLimit  int
	maxNodes, iterations, maxRules int
}

func newActLang(t testing.TB) *actLang {
	t.Helper()
	g := New()
	expr, err := g.AddEqSort("Expr")
	if err != nil {
		t.Fatal(err)
	}
	l := &actLang{g: g, Expr: expr, Vec: g.VecSortOf(expr),
		wideArity: argBufLen + 2, maxVec: argBufLen + 2, matchLimit: 60,
		maxNodes: 1500, iterations: 3, maxRules: 3}
	mk := func(f *Function) *Function {
		f, err := g.DeclareFunction(f)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	l.Num = mk(&Function{Name: "Num", Params: []*Sort{g.I64}, Out: expr})
	l.Add = mk(&Function{Name: "Add", Params: []*Sort{expr, expr}, Out: expr})
	l.Mul = mk(&Function{Name: "Mul", Params: []*Sort{expr, expr}, Out: expr, Cost: 2})
	l.Neg = mk(&Function{Name: "Neg", Params: []*Sort{expr}, Out: expr})
	wide := make([]*Sort, l.wideArity)
	for i := range wide {
		wide[i] = expr
	}
	l.Wide = mk(&Function{Name: "Wide", Params: wide, Out: expr})
	l.Sum = mk(&Function{Name: "Sum", Params: []*Sort{l.Vec}, Out: expr})
	l.Seen = mk(&Function{Name: "Seen", Params: []*Sort{expr}, Out: g.Unit})
	l.Weight = mk(&Function{Name: "weight", Params: []*Sort{expr}, Out: g.I64, Merge: MergeMinI64, MergeName: "min"})
	l.plus = &Prim{Name: "+", Apply: func(g *EGraph, a []Value) (Value, bool) {
		return I64Value(g.I64, a[0].AsI64()+a[1].AsI64()), true
	}}
	l.div = &Prim{Name: "/", Apply: func(g *EGraph, a []Value) (Value, bool) {
		if a[1].AsI64() == 0 {
			return Value{}, false
		}
		return I64Value(g.I64, a[0].AsI64()/a[1].AsI64()), true
	}}
	return l
}

// actGen draws one rule at a time: its premises from a few fixed shapes,
// its actions at random.
type actGen struct {
	l   *actLang
	rng *rand.Rand
	// slots holds the sort of each slot so far (nil: not readable).
	slots []*Sort
}

// rule draws rule i: Add or Mul(?0, ?1) = ?2, optionally Num(?3) = ?0
// and ?4 = (+ ?3 1), whose sort only a primitive gives, then one to five
// actions.
func (a *actGen) rule(i int) *Rule {
	l, g := a.l, a.l.g
	r := &Rule{Name: fmt.Sprintf("r%d", i)}
	root := l.Add
	if a.rng.Intn(2) == 0 {
		root = l.Mul
	}
	r.Premises = append(r.Premises, &TablePremise{Fn: root, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)})
	a.slots = []*Sort{l.Expr, l.Expr, l.Expr}
	if a.rng.Intn(2) == 0 {
		r.Premises = append(r.Premises,
			&TablePremise{Fn: l.Num, Args: []Atom{VarAtom(3)}, Out: VarAtom(0)},
			&EvalPremise{Prim: l.plus, Args: []Atom{VarAtom(3), LitAtom(I64Value(g.I64, 1))}, Out: VarAtom(4)})
		a.slots = append(a.slots, g.I64, g.I64)
	}
	for range 1 + a.rng.Intn(5) {
		r.Actions = append(r.Actions, a.action())
	}
	r.NumSlots = len(a.slots)
	return r
}

func (a *actGen) action() Action {
	l := a.l
	switch a.rng.Intn(6) {
	case 0:
		sort := l.Expr
		if a.rng.Intn(3) == 0 {
			sort = l.g.I64
		}
		t := a.term(sort, 3)
		a.slots = append(a.slots, sort)
		return &LetAction{Slot: len(a.slots) - 1, T: t}
	case 1:
		return &SetAction{Fn: l.Weight, Args: []*ATerm{a.term(l.Expr, 2)}, Out: a.term(l.g.I64, 2)}
	case 2:
		fn := l.Add
		if a.rng.Intn(2) == 0 {
			fn = l.Mul
		}
		return &CostAction{Fn: fn, Args: []*ATerm{a.term(l.Expr, 2), a.term(l.Expr, 2)}, Cost: a.term(l.g.I64, 1)}
	case 3:
		if a.rng.Intn(2) == 0 {
			return &InsertAction{T: &ATerm{Kind: AApp, Fn: l.Seen, Args: []*ATerm{a.term(l.Expr, 2)}}}
		}
		return &InsertAction{T: a.term(l.Expr, 3)}
	default:
		// Unions are the most common action, so that a batch unions
		// classes that later matches of the same batch use.
		return &UnionAction{A: a.term(l.Expr, 1), B: a.term(l.Expr, 3)}
	}
}

// term draws a term of sort s at most depth applications deep.
func (a *actGen) term(s *Sort, depth int) *ATerm {
	l := a.l
	var vars []int
	for i, vs := range a.slots {
		if vs == s {
			vars = append(vars, i)
		}
	}
	if s == l.g.I64 {
		switch k := a.rng.Intn(8); {
		case depth == 0 || k < 3:
			if len(vars) > 0 && a.rng.Intn(2) == 0 {
				return &ATerm{Kind: AVar, Slot: vars[a.rng.Intn(len(vars))]}
			}
			return &ATerm{Kind: ALit, Lit: I64Value(l.g.I64, int64(a.rng.Intn(4)))}
		case k < 6:
			return &ATerm{Kind: APrim, Prim: l.plus, Args: []*ATerm{a.term(s, depth-1), a.term(s, depth-1)}}
		case k < 7:
			return &ATerm{Kind: APrim, Prim: l.div, Args: []*ATerm{a.term(s, depth-1), a.term(s, depth-1)}}
		default:
			return &ATerm{Kind: AApp, Fn: l.Weight, Args: []*ATerm{a.term(l.Expr, depth-1)}}
		}
	}
	k := a.rng.Intn(12)
	if depth == 0 || k < 4 {
		if len(vars) > 0 && k != 0 {
			return &ATerm{Kind: AVar, Slot: vars[a.rng.Intn(len(vars))]}
		}
		return &ATerm{Kind: AApp, Fn: l.Num, Args: []*ATerm{{Kind: ALit, Lit: I64Value(l.g.I64, int64(a.rng.Intn(6)))}}}
	}
	app := func(f *Function, n, depth int) *ATerm {
		t := &ATerm{Kind: AApp, Fn: f}
		for range n {
			t.Args = append(t.Args, a.term(f.Params[0], depth))
		}
		return t
	}
	switch k {
	case 4:
		return &ATerm{Kind: AApp, Fn: l.Num, Args: []*ATerm{a.term(l.g.I64, depth-1)}}
	case 5, 6:
		return app(l.Add, 2, depth-1)
	case 7:
		return app(l.Mul, 2, depth-1)
	case 8:
		return app(l.Neg, 1, depth-1)
	case 9:
		// A wide node's arguments and a vector's elements are shallow, so
		// that a term stays small.
		return app(l.Wide, l.wideArity, 0)
	default:
		vec := &ATerm{Kind: AVec, VecSort: l.Vec}
		for range a.rng.Intn(l.maxVec + 1) {
			vec.Args = append(vec.Args, a.term(l.Expr, min(depth-1, 1)))
		}
		return &ATerm{Kind: AApp, Fn: l.Sum, Args: []*ATerm{vec}}
	}
}

// seed fills the graph with a few leaves and applications.
func (l *actLang) seed(t testing.TB, rng *rand.Rand) {
	g := l.g
	vals := make([]Value, 0, 16)
	for i := range 5 {
		v, err := g.Insert(l.Num, I64Value(g.I64, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	for range 8 {
		f := []*Function{l.Add, l.Mul}[rng.Intn(2)]
		v, err := g.Insert(f, vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
}

// applyRounds saturates g for a few rounds the way the runner does —
// match every rule against the rebuilt graph, apply the batch under the
// frozen snapshot, rebuild — applying each match either with the compiled
// actions, from the runner's stored-match buffer, or with the reference
// tree walk, from Match's full bindings. It returns the first rule error.
func (l *actLang) applyRounds(g *EGraph, rules []*Rule, compiled bool) error {
	type batch struct {
		r     *Rule
		buf   matchBuf
		binds [][]Value
	}
	for range l.iterations {
		if g.NumNodes() > l.maxNodes {
			return nil
		}
		g.iterCur++
		g.Rebuild()
		batches := make([]batch, len(rules))
		for i, r := range rules {
			b := &batches[i]
			b.r = r
			if compiled {
				var m matchRun
				m.reset(g, r, r.planOf(), matchSpec{deltaOrd: -1})
				m.out, m.limit = &b.buf, l.matchLimit
				if err := m.matchShard(0, -1); err != nil {
					return err
				}
				continue
			}
			err := g.Match(r, func(binds []Value) bool {
				b.binds = append(b.binds, binds)
				return len(b.binds) < l.matchLimit
			})
			if err != nil {
				return err
			}
		}
		g.beginFrozenApply(nil)
		for i := range batches {
			b := &batches[i]
			g.ruleCur = g.ruleID(b.r.Name)
			if compiled {
				plan := b.r.planOf()
				binds := make([]Value, b.r.NumSlots)
				for j := range b.buf.n {
					b.buf.load(binds, j, plan)
					if err := g.exec(b.r, plan.acts, binds); err != nil {
						g.endFrozenApply()
						return err
					}
				}
				continue
			}
			for _, binds := range b.binds {
				if err := refApplyActions(g, b.r, binds); err != nil {
					g.endFrozenApply()
					return err
				}
			}
		}
		g.endFrozenApply()
		g.Rebuild()
	}
	return nil
}

// compiledActionsAgree draws a graph and rules from seed and applies them
// on two clones, once compiled and once with the reference tree walk.
// Both must write byte-equal journals, end in equal snapshots and stop
// with the same error. It returns the compiled clone and its error.
func compiledActionsAgree(t *testing.T, seed int64) (*actLang, *EGraph, string) {
	rng := rand.New(rand.NewSource(seed))
	l := newActLang(t)
	if seed%2 != 0 {
		l.g.EnableExplanations()
	}
	l.seed(t, rng)
	gen := &actGen{l: l, rng: rng}
	rules := make([]*Rule, 1+rng.Intn(l.maxRules))
	for i := range rules {
		rules[i] = gen.rule(i)
	}
	type result struct {
		g       *EGraph
		journal []byte
		snap    *Snapshot
		err     string
	}
	run := func(compiled bool) result {
		c := l.g.Clone()
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		c.SetJournal(w, "fuzz")
		var res result
		if err := l.applyRounds(c, rules, compiled); err != nil {
			res.err = err.Error()
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		c.Rebuild()
		res.g, res.journal, res.snap = c, buf.Bytes(), c.Snapshot(int(c.iterCur))
		return res
	}
	got, want := run(true), run(false)
	if got.err != want.err {
		t.Fatalf("seed %d: compiled actions stopped with %q, the reference with %q", seed, got.err, want.err)
	}
	if !bytes.Equal(got.journal, want.journal) {
		g, w := strings.Split(string(got.journal), "\n"), strings.Split(string(want.journal), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("seed %d: journals differ at event %d:\ncompiled  %s\nreference %s", seed, i, g[i], w[i])
			}
		}
		t.Fatalf("seed %d: journals differ in length: %d and %d events", seed, len(g), len(w))
	}
	if !reflect.DeepEqual(got.snap, want.snap) {
		t.Fatalf("seed %d: snapshots differ", seed)
	}
	return l, got.g, got.err
}

// FuzzCompiledActions: compiled rule actions must do exactly what the
// reference tree walk does, for any rules of lets, unions, sets, costs,
// vec-of and primitives.
func FuzzCompiledActions(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42, 20250301} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { compiledActionsAgree(t, seed) })
}

// TestCompiledActionsMatchReference runs the fuzz property over a fixed
// seed sweep so `go test` exercises it without -fuzz, and checks that
// the sweep reaches what it is meant to: wide nodes, wide vectors,
// unions, sets, costs and errors.
func TestCompiledActionsMatchReference(t *testing.T) {
	reached := map[string]int{}
	for seed := int64(0); seed < 60; seed++ {
		l, g, err := compiledActionsAgree(t, seed)
		if err != "" {
			reached["error"]++
		}
		if g.unionCount > 0 {
			reached["union"]++
		}
		reached["wide"] += g.tab(l.Wide).live
		reached["set"] += g.tab(l.Weight).live
		g.ForEachRow(l.Sum, func(args []Value, _ Value) bool {
			if len(g.VecElems(args[0])) > argBufLen {
				reached["wide vec-of"]++
			}
			return true
		})
		for _, f := range []*Function{l.Add, l.Mul} {
			for _, r := range g.tab(f).rows {
				if r.cost != 0 {
					reached["cost"]++
				}
			}
		}
	}
	for _, what := range []string{"error", "union", "wide", "set", "wide vec-of", "cost"} {
		if reached[what] == 0 {
			t.Errorf("no seed reached %s", what)
		}
	}
	t.Logf("reached: %v", reached)
}
