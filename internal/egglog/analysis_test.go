package egglog

import (
	"fmt"
	"strings"
	"testing"

	"dialegg/internal/egraph"
	"dialegg/internal/sched"
)

// These tests implement the paper's §9 outlook: "an exciting direction
// could be to use the lattice operations supported by Egglog" for program
// analyses beyond type information, in the style of the original egglog
// paper's points-to analysis.

// TestIntervalAnalysis runs a classic interval (range) analysis as an
// egglog lattice program: lo is a descending lattice (merge min), hi an
// ascending one (merge max); transfer rules propagate bounds through Add
// and Mul of non-negative ranges, and a conditional rewrite uses the
// derived facts.
func TestIntervalAnalysis(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(function lo (Expr) i64 :merge (min old new))
(function hi (Expr) i64 :merge (max old new))

; constants have exact bounds
(rule ((= ?e (Num ?n))) ((set (lo ?e) ?n) (set (hi ?e) ?n)))

; addition adds bounds
(rule ((= ?e (Add ?a ?b)) (= ?la (lo ?a)) (= ?lb (lo ?b))
       (= ?ha (hi ?a)) (= ?hb (hi ?b)))
      ((set (lo ?e) (+ ?la ?lb)) (set (hi ?e) (+ ?ha ?hb))))

; multiplication of non-negative ranges multiplies bounds
(rule ((= ?e (Mul ?a ?b)) (= ?la (lo ?a)) (= ?lb (lo ?b))
       (= ?ha (hi ?a)) (= ?hb (hi ?b)) (>= ?la 0) (>= ?lb 0))
      ((set (lo ?e) (* ?la ?lb)) (set (hi ?e) (* ?ha ?hb))))

(let e (Add (Mul (Num 3) (Num 4)) (Num 5)))
(run 10)
`)
	g := p.Graph()
	lo, _ := g.FunctionByName("lo")
	hi, _ := g.FunctionByName("hi")
	e, _ := p.LookupLet("e")
	lv, ok := g.Lookup(lo, e)
	if !ok || lv.AsI64() != 17 {
		t.Errorf("lo(e) = %v,%v want 17", lv.AsI64(), ok)
	}
	hv, ok := g.Lookup(hi, e)
	if !ok || hv.AsI64() != 17 {
		t.Errorf("hi(e) = %v,%v want 17", hv.AsI64(), ok)
	}
}

// TestIntervalMergeAcrossUnion: when two expressions with different known
// ranges are proven equal, the lattice merges keep the tightest interval.
func TestIntervalMergeAcrossUnion(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(function lo (Expr) i64 :merge (max old new)) ; lower bounds tighten upward
(function hi (Expr) i64 :merge (min old new)) ; upper bounds tighten downward
(let a (Var "a"))
(let b (Var "b"))
(set (lo a) 0)
(set (hi a) 100)
(set (lo b) 10)
(set (hi b) 50)
(union a b)
`)
	g := p.Graph()
	g.Rebuild()
	lo, _ := g.FunctionByName("lo")
	hi, _ := g.FunctionByName("hi")
	a, _ := p.LookupLet("a")
	lv, ok := g.Lookup(lo, a)
	if !ok || lv.AsI64() != 10 {
		t.Errorf("lo after union = %v,%v want 10 (tightest)", lv.AsI64(), ok)
	}
	hv, ok := g.Lookup(hi, a)
	if !ok || hv.AsI64() != 50 {
		t.Errorf("hi after union = %v,%v want 50 (tightest)", hv.AsI64(), ok)
	}

	// The lattice forms are accepted in either argument order; any other
	// merge is rejected, naming the function, the form and its position,
	// instead of being approximated.
	mustExec(t, p, `(function hi2 (Expr) i64 :merge (min new old))`)
	for _, form := range []string{
		`new`,                 // overwrite
		`(+ old new)`,         // an expression the engine does not evaluate
		`(min old 0)`,         // min, but not over (old, new)
		`(max old new extra)`, // wrong arity
	} {
		decl := `(function bad (Expr) i64 :merge ` + form + `)`
		_, err := p.ExecuteString(decl)
		pos := fmt.Sprintf("1:%d:", strings.Index(decl, form)+1)
		if err == nil || !strings.Contains(err.Error(), "function bad") ||
			!strings.Contains(err.Error(), form) || !strings.Contains(err.Error(), pos) {
			t.Errorf(":merge %s: err = %v, want the function, the form and %s", form, err, pos)
		}
	}
	// min/max compare raw i64 bits, which is wrong for any other sort.
	if _, err := p.ExecuteString(`(function badf (Expr) f64 :merge (min old new))`); err == nil ||
		!strings.Contains(err.Error(), "function badf") || !strings.Contains(err.Error(), "1:34:") {
		t.Errorf("f64 min merge: err = %v, want a positioned rejection", err)
	}
}

// TestAnalysisGuardedRewrite: a rewrite that fires only when the analysis
// proves the divisor non-zero — the §9 pattern of gating rules on derived
// facts (the MemoryEffects discussion's analogue for analyses).
func TestAnalysisGuardedRewrite(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(function lo (Expr) i64 :merge (max old new))
(rule ((= ?e (Num ?n))) ((set (lo ?e) ?n)))
(rule ((= ?e (Add ?a ?b)) (= ?la (lo ?a)) (= ?lb (lo ?b)))
      ((set (lo ?e) (+ ?la ?lb))))

; x/x => 1, but only when x is provably positive (hence nonzero)
(rule ((= ?e (Div ?x ?x)) (= ?l (lo ?x)) (>= ?l 1))
      ((union ?e (Num 1))))

(let safe   (Div (Add (Num 2) (Num 3)) (Add (Num 2) (Num 3))))
(let unsafe (Div (Var "v") (Var "v")))
(run 10)
(check (= safe (Num 1)))
`)
	holds, err := p.Check(mustParseFacts(t, `(= unsafe (Num 1))`))
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Error("guarded rewrite fired without a proven range")
	}
}

// TestPointsToStyleAnalysis reproduces the flavor of the egglog paper's
// points-to analysis over relations: allocation sites, assignments, and
// transitive propagation of may-point-to facts.
func TestPointsToStyleAnalysis(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort Var)
(sort Obj)
(function V (String) Var)
(function O (String) Obj)
(relation alloc (Var Obj))     ; v = new O
(relation assign (Var Var))    ; v = w
(relation points-to (Var Obj))

(rule ((alloc ?v ?o)) ((points-to ?v ?o)))
(rule ((assign ?v ?w) (points-to ?w ?o)) ((points-to ?v ?o)))

(alloc (V "a") (O "heap1"))
(alloc (V "b") (O "heap2"))
(assign (V "c") (V "a"))
(assign (V "d") (V "c"))
(assign (V "d") (V "b"))
(run 10)
(check (points-to (V "c") (O "heap1")))
(check (points-to (V "d") (O "heap1")))
(check (points-to (V "d") (O "heap2")))
`)
	holds, err := p.Check(mustParseFacts(t, `(points-to (V "a") (O "heap2"))`))
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Error("spurious points-to fact derived")
	}
}

// TestRunConfigDefaultsFlow checks Program.RunDefaults feed the engine.
func TestRunConfigDefaults(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(rewrite (Add ?x ?y) (Add ?y ?x))
(let e (Add (Num 1) (Num 2)))
`)
	p.RunDefaults = egraph.RunConfig{IterLimit: 1}
	mustExec(t, p, `(run)`)
	rep := p.LastRun
	if rep.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 (RunDefaults)", rep.Iterations)
	}
}

// countObserver counts ObserveIter deliveries.
type countObserver int

func (c *countObserver) ObserveIter(int, *egraph.IterStats, []sched.RuleIterStats) { *c++ }

// TestRunKeepsRunDefaults: (run N) runs under the whole RunDefaults config
// with only IterLimit overridden, so an observer set there sees every
// iteration, as it does under run-schedule.
func TestRunKeepsRunDefaults(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(rewrite (Add ?x ?y) (Add ?y ?x))
(let e (Add (Num 1) (Add (Num 2) (Num 3))))
`)
	var seen countObserver
	p.RunDefaults = egraph.RunConfig{IterLimit: 10, Observer: &seen}
	mustExec(t, p, `(run 3)`)
	rep := p.LastRun
	if rep.Iterations < 1 || rep.Iterations > 3 {
		t.Fatalf("(run 3) ran %d iterations", rep.Iterations)
	}
	if int(seen) != rep.Iterations {
		t.Errorf("observer saw %d of (run 3)'s %d iterations", seen, rep.Iterations)
	}
}

// TestLatticeChangeKeepsRunAlive: a primitive :merge that changes a value
// is progress even though it adds no row and makes no union — the row
// joins the next delta, so rules that read the value still have work.
// lo(c) needs three rounds to settle (a, then b = a+a, then c = b+a), so
// the run may not stop as saturated before its fourth, quiet iteration.
func TestLatticeChangeKeepsRunAlive(t *testing.T) {
	const src = `
(datatype E (Num i64) (Add E E))
(function lo (E) i64 :merge (max old new))
(let a (Num 1))
(let b (Add a a))
(let c (Add b a))
(set (lo a) -100)
(set (lo b) -100)
(set (lo c) -100)
(rule ((= ?e (Num ?n))) ((set (lo ?e) ?n)))
(rule ((= ?e (Add ?x ?y)) (= ?lx (lo ?x)) (= ?ly (lo ?y)))
      ((set (lo ?e) (+ ?lx ?ly))))
(run 10)
(extract (lo c))
`
	for _, naive := range []bool{false, true} {
		p := NewProgram()
		p.RunDefaults.Naive = naive
		var run, ext *Result
		res := mustExec(t, p, src)
		for i := range res {
			switch res[i].Command {
			case "run":
				run = &res[i]
			case "extract":
				ext = &res[i]
			}
		}
		if run == nil || ext == nil {
			t.Fatalf("naive=%v: missing run or extract result: %+v", naive, res)
		}
		if rep := run.Report; rep.Stop != egraph.StopSaturated || rep.Iterations != 4 {
			t.Errorf("naive=%v: run stopped %s after %d iterations, want saturated after 4",
				naive, rep.Stop, rep.Iterations)
		}
		if got := ext.Term.String(); got != "3" {
			t.Errorf("naive=%v: (extract (lo c)) = %s, want 3", naive, got)
		}
	}
}
