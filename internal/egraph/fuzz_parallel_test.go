package egraph

// Property and fuzz tests for the parallel match phase. The contract under
// test: sharding a rule's top-level scan and concatenating shard buffers
// in shard order yields exactly the serial match sequence, and a
// saturation run with any worker count preserves the congruence-closure
// invariants.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// randRules builds a random rule set over the test language: mixes of
// one- and two-premise queries (joins) with union actions, the shapes the
// saturation engine actually executes.
func randRules(l *exprLang, rng *rand.Rand, n int) []*Rule {
	bins := []*Function{l.Add, l.Mul, l.Div, l.Shl}
	rules := make([]*Rule, 0, n)
	for i := 0; i < n; i++ {
		f := bins[rng.Intn(len(bins))]
		g := bins[rng.Intn(len(bins))]
		var r *Rule
		switch rng.Intn(3) {
		case 0:
			// f(x, y) = r  =>  union(r, f(y, x))   (commute)
			r = &Rule{
				Name: fmt.Sprintf("comm-%d", i),
				Premises: []Premise{
					&TablePremise{Fn: f, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
				},
				Actions: []Action{
					&UnionAction{
						A: &ATerm{Kind: AVar, Slot: 2},
						B: &ATerm{Kind: AApp, Fn: f, Args: []*ATerm{{Kind: AVar, Slot: 1}, {Kind: AVar, Slot: 0}}},
					},
				},
				NumSlots: 3,
			}
		case 1:
			// f(g(x, y), z) = r  =>  union(r, f(x, g(y, z)))   (assoc-like)
			r = &Rule{
				Name: fmt.Sprintf("assoc-%d-%s-%s", i, f.Name, g.Name),
				Premises: []Premise{
					&TablePremise{Fn: g, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
					&TablePremise{Fn: f, Args: []Atom{VarAtom(2), VarAtom(3)}, Out: VarAtom(4)},
				},
				Actions: []Action{
					&UnionAction{
						A: &ATerm{Kind: AVar, Slot: 4},
						B: &ATerm{Kind: AApp, Fn: f, Args: []*ATerm{
							{Kind: AVar, Slot: 0},
							{Kind: AApp, Fn: g, Args: []*ATerm{{Kind: AVar, Slot: 1}, {Kind: AVar, Slot: 3}}},
						}},
					},
				},
				NumSlots: 5,
			}
		default:
			// f(x, x) = r  =>  union(r, x)   (self-premise collapse)
			r = &Rule{
				Name: fmt.Sprintf("self-%d-%s", i, f.Name),
				Premises: []Premise{
					&TablePremise{Fn: f, Args: []Atom{VarAtom(0), VarAtom(0)}, Out: VarAtom(1)},
				},
				Actions: []Action{
					&UnionAction{A: &ATerm{Kind: AVar, Slot: 1}, B: &ATerm{Kind: AVar, Slot: 0}},
				},
				NumSlots: 2,
			}
		}
		rules = append(rules, r)
	}
	return rules
}

// serialMatches collects a rule's matches exactly as the serial engine
// does: one Match pass in table scan order.
func serialMatches(g *EGraph, r *Rule) [][]Value {
	var out [][]Value
	if err := g.Match(r, func(binds []Value) bool {
		out = append(out, binds)
		return true
	}); err != nil {
		panic(err)
	}
	return out
}

// shardedMatches collects matches through matchShard with the given shard
// count (run concurrently), merged in shard order — the parallel runner's
// code path.
func shardedMatches(t *testing.T, g *EGraph, r *Rule, shards int) [][]Value {
	t.Helper()
	n, _ := g.firstPremiseScan(r)
	if shards > n && n > 0 {
		shards = n
	}
	if n == 0 || shards <= 1 {
		return serialMatches(g, r)
	}
	bufs := make([][][]Value, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := n*s/shards, n*(s+1)/shards
			errs[s] = g.matchShard(r, lo, hi, func(binds []Value) bool {
				bufs[s] = append(bufs[s], binds)
				return true
			})
		}(s)
	}
	wg.Wait()
	var out [][]Value
	for s := 0; s < shards; s++ {
		if errs[s] != nil {
			t.Fatalf("shard %d: %v", s, errs[s])
		}
		out = append(out, bufs[s]...)
	}
	return out
}

func bindingsEqual(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkCongruenceInvariants asserts the post-rebuild invariants the
// invariants_test suite checks: no two live rows share canonical args,
// and re-inserting any row's canonicalized children lands in its class.
func checkCongruenceInvariants(t *testing.T, g *EGraph) {
	t.Helper()
	for _, f := range g.Functions() {
		seen := make(map[string]Value)
		g.ForEachRow(f, func(args []Value, out Value) bool {
			canon := make([]Value, len(args))
			for i, a := range args {
				canon[i] = g.Find(a)
			}
			key := string(appendArgBits(nil, canon))
			if prev, dup := seen[key]; dup {
				if g.Find(prev).Bits != g.Find(out).Bits {
					t.Fatalf("congruence violated in %s: same args, different classes", f.Name)
				}
				t.Fatalf("duplicate live row in %s", f.Name)
			}
			seen[key] = out
			return true
		})
		if !f.IsConstructor() {
			continue
		}
		g.ForEachRow(f, func(args []Value, out Value) bool {
			canon := make([]Value, len(args))
			for i, a := range args {
				canon[i] = g.Find(a)
			}
			again, err := g.Insert(f, canon...)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Eq(again, out) {
				t.Fatalf("re-insertion of %s row diverged", f.Name)
			}
			return true
		})
	}
}

// fuzzParallelOnce is the property both the fuzz target and the table
// test drive: on a random graph with random rules,
//  1. the sharded matcher yields the same match sequence (hence the same
//     multiset) as the serial matcher on the same snapshot, and
//  2. a parallel saturation run produces the same fixpoint as a serial
//     one and preserves the congruence invariants after every iteration.
func fuzzParallelOnce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	l := newExprLangQuiet()
	randGraph(l, rng, 2+rng.Intn(5), 10+rng.Intn(40), rng.Intn(10))
	rules := randRules(l, rng, 1+rng.Intn(5))
	g := l.g

	// Property 1: per-rule sharded match == serial match, on the frozen
	// snapshot, for several shard counts.
	for _, r := range rules {
		want := serialMatches(g, r)
		for _, shards := range []int{2, 3, 8} {
			got := shardedMatches(t, g, r, shards)
			if !bindingsEqual(want, got) {
				t.Fatalf("seed %d: rule %s: %d shards yielded %d matches, serial %d (or order diverged)",
					seed, r.Name, shards, len(got), len(want))
			}
		}
	}

	// Property 2: parallel saturation reaches the serial fixpoint and
	// keeps the graph congruent after each iteration (IterLimit 1 steps).
	serial := newExprLangQuiet()
	rngS := rand.New(rand.NewSource(seed))
	randGraph(serial, rngS, 2+rngS.Intn(5), 10+rngS.Intn(40), rngS.Intn(10))
	serialRules := randRules(serial, rngS, 1+rngS.Intn(5))
	cfgStep := RunConfig{IterLimit: 1, NodeLimit: 50_000, Workers: runtime.GOMAXPROCS(0)}
	for iter := 0; iter < 4; iter++ {
		g.Run(rules, cfgStep)
		checkCongruenceInvariants(t, g)
		serial.g.Run(serialRules, RunConfig{IterLimit: 1, NodeLimit: 50_000, Workers: 1})
	}
	if a, b := g.NumNodes(), serial.g.NumNodes(); a != b {
		t.Fatalf("seed %d: parallel nodes %d != serial nodes %d", seed, a, b)
	}
	if a, b := g.NumClasses(), serial.g.NumClasses(); a != b {
		t.Fatalf("seed %d: parallel classes %d != serial classes %d", seed, a, b)
	}
	if a, b := g.UnionCount(), serial.g.UnionCount(); a != b {
		t.Fatalf("seed %d: parallel unions %d != serial unions %d", seed, a, b)
	}
}

// FuzzParallelMatch extends the fuzz entry points to the parallel
// matcher: any seed must satisfy the serial/parallel equivalence.
func FuzzParallelMatch(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 20250301, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fuzzParallelOnce(t, seed)
	})
}

// TestParallelMatchProperty runs the fuzz property over a fixed seed
// sweep so `go test` exercises it without -fuzz.
func TestParallelMatchProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		fuzzParallelOnce(t, seed)
	}
}
