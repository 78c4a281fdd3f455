package egglog_test

// Differential tests for the parallel match phase: the engine contract is
// that saturation output is byte-identical for every worker count. Each
// case runs once with Workers=1 (serial engine) and once with Workers=8
// and compares extraction results, e-node/e-class counts, and union
// counts; the dialegg half does the same over the paper's benchmark
// workloads end-to-end (MLIR in, MLIR out).

import (
	"fmt"
	"testing"

	"dialegg/internal/bench"
	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egglog"
	"dialegg/internal/mlir"
)

const diffPrelude = `
(sort Expr)
(function Num (i64) Expr :cost 1)
(function Var (String) Expr :cost 1)
(function Add (Expr Expr) Expr :cost 1)
(function Mul (Expr Expr) Expr :cost 2)
(function Div (Expr Expr) Expr :cost 2)
(function Shl (Expr Expr) Expr :cost 1)
`

// diffPrograms are egglog programs covering the engine's features: the
// paper's figure-1 rules, commutative/associative blowup, primitive
// evaluation in actions, rulesets with run-schedule, relations, and
// unstable-cost overrides on rows that a union makes congruent.
var diffPrograms = []struct {
	name string
	src  string
}{
	{"figure1", diffPrelude + `
(rewrite (Div ?x ?x) (Num 1))
(rewrite (Mul ?x (Num 1)) ?x)
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(rewrite (Div (Mul ?x ?y) ?z) (Mul ?x (Div ?y ?z)))
(let e (Div (Mul (Var "a") (Num 2)) (Num 2)))
(run 10)
(extract e)
`},
	{"comm-assoc-blowup", diffPrelude + `
(rewrite (Add ?a ?b) (Add ?b ?a))
(rewrite (Add (Add ?a ?b) ?c) (Add ?a (Add ?b ?c)))
(rewrite (Mul ?a ?b) (Mul ?b ?a))
(let e (Add (Num 1) (Add (Num 2) (Add (Num 3) (Add (Num 4) (Num 5))))))
(let f (Mul (Var "x") (Mul (Var "y") (Var "z"))))
(run 6)
(extract e)
(extract f)
`},
	{"constant-fold", diffPrelude + `
(rewrite (Add (Num ?a) (Num ?b)) (Num (+ ?a ?b)))
(rewrite (Mul (Num ?a) (Num ?b)) (Num (* ?a ?b)))
(let e (Add (Num 1) (Add (Num 2) (Mul (Num 3) (Num 4)))))
(run 10)
(extract e)
`},
	{"run-schedule", diffPrelude + `
(ruleset fold)
(ruleset shift)
(rewrite (Add (Num ?a) (Num ?b)) (Num (+ ?a ?b)) :ruleset fold)
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)) :ruleset shift)
(let e (Mul (Add (Num 1) (Num 1)) (Num 2)))
(run-schedule (saturate fold) (run shift 2))
(extract e)
`},
	{"relations", diffPrelude + `
(relation seen (Expr))
(rule ((= ?e (Add ?a ?b))) ((seen ?e) (union (Add ?a ?b) (Add ?b ?a))))
(let e (Add (Var "p") (Var "q")))
(let f (Add (Var "q") (Var "p")))
(run 4)
(check (= e f))
(extract e)
`},
	{"cost-merge", costMergeProgram},
}

// costMergeProgram prices two Mul rows 12 and 3, then a union makes them
// congruent.
const costMergeProgram = diffPrelude + `
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(rule ((= ?e (Shl ?x (Num ?k)))) ((unstable-cost (Shl ?x (Num ?k)) (+ ?k 8))))
(let e (Mul (Var "a") (Num 2)))
(let f (Mul (Var "b") (Num 2)))
(unstable-cost (Mul (Var "a") (Num 2)) 12)
(unstable-cost (Mul (Var "b") (Num 2)) 3)
(union (Var "a") (Var "b"))
(run 4)
(extract e)
`

// TestCongruentOverridesKeepCheaper: when the union in costMergeProgram
// makes the two priced Mul rows congruent, the surviving row keeps the
// cheaper 3, so Mul (3 + 1 + 1) beats the Shl the rewrite adds
// (9 + 1 + 1); with the 12 it would lose.
func TestCongruentOverridesKeepCheaper(t *testing.T) {
	results, err := egglog.NewProgram().ExecuteString(costMergeProgram)
	if err != nil {
		t.Fatal(err)
	}
	r := results[len(results)-1]
	if got, want := fmt.Sprintf("%s ; cost %d", r.Term, r.Cost), `(Mul (Var "a") (Num 2)) ; cost 5`; got != want {
		t.Errorf("extract e = %s, want %s", got, want)
	}
}

// runFingerprint executes src with the given worker count and match mode
// and returns a string folding every observable output: extraction terms
// and costs, check results, and the final graph's node/class/union
// counts.
func runFingerprint(t *testing.T, src string, workers int, naive bool) string {
	t.Helper()
	p := egglog.NewProgram()
	p.RunDefaults.Workers = workers
	p.RunDefaults.Naive = naive
	results, err := p.ExecuteString(src)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	out := ""
	for _, r := range results {
		switch r.Command {
		case "extract":
			out += fmt.Sprintf("extract %s cost %d\n", r.Term, r.Cost)
		case "run", "run-schedule":
			out += fmt.Sprintf("run iters %d stop %s nodes %d classes %d\n",
				r.Report.Iterations, r.Report.Stop, r.Report.Nodes, r.Report.Classes)
		case "check":
			out += "check ok\n"
		}
	}
	g := p.Graph()
	out += fmt.Sprintf("final nodes %d classes %d unions %d\n",
		g.NumNodes(), g.NumClasses(), g.UnionCount())
	return out
}

// TestParallelDiffEgglogPrograms: every egglog program produces identical
// output with a serial and an 8-worker match phase.
func TestParallelDiffEgglogPrograms(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			serial := runFingerprint(t, tc.src, 1, false)
			parallel := runFingerprint(t, tc.src, 8, false)
			if serial != parallel {
				t.Errorf("workers=8 diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

// optimizeFingerprint runs the full DialEgg pipeline on one benchmark
// with the given worker count and match mode, folding the printed MLIR
// plus the engine's determinism-relevant counters into a string. The
// saturation report is returned alongside so callers can also compare
// work counters (rows scanned) across modes.
func optimizeFingerprint(t *testing.T, b *bench.Benchmark, workers int, naive bool) (string, *dialegg.Report) {
	t.Helper()
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(b.Source, reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.RunConfig
	cfg.Workers = workers
	cfg.Naive = naive
	opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: b.Rules, RunConfig: cfg})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		t.Fatalf("workers=%d naive=%v: %v", workers, naive, err)
	}
	var unions uint64
	for _, it := range rep.Run.PerIter {
		unions += it.Unions
	}
	return fmt.Sprintf("%s\n--- iters %d stop %s nodes %d classes %d unions %d cost %d dagcost %d\n",
		mlir.PrintModule(m, reg), rep.Run.Iterations, rep.Run.Stop,
		rep.Run.Nodes, rep.Run.Classes, unions, rep.ExtractCost, rep.ExtractDAGCost), rep
}

// TestParallelDiffBenchWorkloads: the determinism contract end-to-end —
// for every paper benchmark, Workers=8 yields byte-identical optimized
// MLIR, extraction costs, class counts, and union counts to Workers=1.
func TestParallelDiffBenchWorkloads(t *testing.T) {
	for _, b := range bench.DefaultBenchmarks(bench.ScaleCI) {
		t.Run(b.Name, func(t *testing.T) {
			serial, _ := optimizeFingerprint(t, b, 1, false)
			parallel, _ := optimizeFingerprint(t, b, 8, false)
			if serial != parallel {
				t.Errorf("workers=8 diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}
