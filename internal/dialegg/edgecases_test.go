package dialegg

import (
	"strings"
	"testing"
	"testing/quick"

	"dialegg/internal/dialects"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

// TestPlainForLoopSurvives: an scf.for without iter_args (no results) uses
// the zero-result scf_for encoding and must survive translation.
func TestPlainForLoopSurvives(t *testing.T) {
	src := `
func.func @sideloop(%n: index) -> index {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  scf.for %i = %c0 to %n step %c1 {
    "debug.probe"(%i) : (index) -> ()
    scf.yield
  }
  func.return %n : index
}`
	m, rep, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "scf.for") != 1 {
		t.Errorf("plain loop lost:\n%s", out)
	}
	if countOps(m, "debug.probe") != 1 {
		t.Errorf("opaque op inside plain loop lost:\n%s", out)
	}
	_ = rep
}

// TestIfInsideForRewrite: rewrites reach a division nested two region
// levels deep (if inside for).
func TestIfInsideForRewrite(t *testing.T) {
	src := `
func.func @deep(%n: index, %flag: i1) -> i64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %zero = arith.constant 0 : i64
  %c64 = arith.constant 64 : i64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %zero) -> (i64) {
    %v = scf.if %flag -> (i64) {
      %iv = arith.index_cast %i : index to i64
      %q = arith.divsi %iv, %c64 : i64
      scf.yield %q : i64
    } else {
      scf.yield %acc : i64
    }
    %next = arith.addi %acc, %v : i64
    scf.yield %next : i64
  }
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.divsi") != 0 {
		t.Errorf("division two regions deep not rewritten:\n%s", out)
	}
	if countOps(m, "arith.shrsi") != 1 {
		t.Errorf("expected shrsi two regions deep:\n%s", out)
	}
	if countOps(m, "scf.if") != 1 || countOps(m, "scf.for") != 1 {
		t.Errorf("control flow lost:\n%s", out)
	}
}

// TestNestedLoopCapturedIterArg: back-translation regression found by the
// differential fuzzer (poly seed 19 minimized). An op inside the inner
// loop captures the *outer* loop's iter_arg; during rebuild the captured
// leaf used to masquerade as evidence of the inner block's identity (same
// parent op name, same argument shapes as the outer block), binding the
// rebuilt inner block to the original outer one and leaving the inner
// iter_arg unbound.
func TestNestedLoopCapturedIterArg(t *testing.T) {
	src := `
func.func @nest(%x: f64) -> f64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %r = scf.for %i = %c0 to %c1 step %c1 iter_args(%a = %x) -> (f64) {
    %inner = scf.for %j = %c0 to %c1 step %c1 iter_args(%b = %x) -> (f64) {
      %cap = arith.addf %x, %a : f64
      scf.yield %b : f64
    }
    scf.yield %inner : f64
  }
  func.return %r : f64
}`
	m, _, reg := optimize(t, src, rules.Poly())
	if countOps(m, "scf.for") != 2 {
		t.Errorf("nested loops lost:\n%s", mlir.PrintModule(m, reg))
	}
}

// TestIterArgOnlyUsedInNestedRegion: the sibling regression (poly seed
// 44). The scf.for's iter_arg is referenced only inside the nested
// scf.if, so no top-level leaf of the loop's body identifies the loop's
// own block; rebuild used to fall back to unbound convention arguments
// and fail on the captured reference. Positional anchoring through the
// original op resolves it.
func TestIterArgOnlyUsedInNestedRegion(t *testing.T) {
	src := `
func.func @deep(%x: f64, %flag: i1) -> f64 {
  %c0 = arith.constant 0 : index
  %c2 = arith.constant 2 : index
  %c1 = arith.constant 1 : index
  %r = scf.for %i = %c0 to %c2 step %c1 iter_args(%acc = %x) -> (f64) {
    %v = scf.if %flag -> (f64) {
      scf.yield %x : f64
    } else {
      %s = arith.addf %acc, %x : f64
      scf.yield %s : f64
    }
    scf.yield %v : f64
  }
  func.return %r : f64
}`
	m, _, reg := optimize(t, src, rules.Poly())
	if countOps(m, "scf.for") != 1 || countOps(m, "scf.if") != 1 {
		t.Errorf("control flow lost:\n%s", mlir.PrintModule(m, reg))
	}
}

// TestVariadicCallEncodings: func_call_N suffixes select by operand count.
func TestVariadicCallEncodings(t *testing.T) {
	callRules := `
(function func_call_0 (AttrPair Type) Op :cost 7)
(function func_call_2 (Op Op AttrPair Type) Op :cost 7)
`
	src := `
func.func @caller(%x: f32) -> f32 {
  %a = func.call @zero() : () -> f32
  %b = func.call @two(%x, %a) : (f32, f32) -> f32
  %c = func.call @one(%b) : (f32) -> f32
  func.return %c : f32
}`
	m, reg := parseModule(t, src)
	opt := NewOptimizer(Options{RuleSources: []string{callRules}})
	prog, err := opt.EggProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	// zero() and two() match declared encodings; one() has no encoding and
	// must be opaque — all three calls survive.
	if countOps(m, "func.call") != 3 {
		t.Errorf("calls lost:\n%s", mlir.PrintModule(m, reg))
	}
	if !strings.Contains(prog, "func_call_0") || !strings.Contains(prog, "func_call_2") {
		t.Errorf("variadic encodings unused:\n%s", prog)
	}
	if rep.NumOpaqueOps != 1 {
		t.Errorf("opaque ops = %d, want 1 (the unary call)", rep.NumOpaqueOps)
	}
}

// TestOpaqueOpWithRegionSurvives: an unregistered op carrying a region
// passes through untouched, interior included.
func TestOpaqueOpWithRegionSurvives(t *testing.T) {
	src := `
func.func @wrap(%x: f32) -> f32 {
  %r = "mydialect.sandbox"(%x) ({
    "mydialect.inner"() {depth = 1 : i64} : () -> ()
  }) : (f32) -> f32
  func.return %r : f32
}`
	m, _, reg := optimize(t, src, rules.VecNorm())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "mydialect.sandbox") != 1 || countOps(m, "mydialect.inner") != 1 {
		t.Errorf("opaque region op mangled:\n%s", out)
	}
	if !strings.Contains(out, "depth = 1 : i64") {
		t.Errorf("inner attribute lost:\n%s", out)
	}
}

// TestMultiFunctionModule: every function is optimized independently.
func TestMultiFunctionModule(t *testing.T) {
	src := `
func.func @f1(%x: i64) -> i64 {
  %c4 = arith.constant 4 : i64
  %r = arith.divsi %x, %c4 : i64
  func.return %r : i64
}
func.func @f2(%x: i64) -> i64 {
  %c16 = arith.constant 16 : i64
  %r = arith.divsi %x, %c16 : i64
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.divsi") != 0 || countOps(m, "arith.shrsi") != 2 {
		t.Errorf("per-function optimization incomplete:\n%s", out)
	}
	if !strings.Contains(out, "arith.constant 2 : i64") || !strings.Contains(out, "arith.constant 4 : i64") {
		t.Errorf("shift amounts wrong:\n%s", out)
	}
}

// TestChainedRewrites: constant folding feeds div-pow2 — saturation
// composes rules across "pass boundaries" (the paper's phase-ordering
// pitch). 2*128 folds to 256, which is then a power of two.
func TestChainedRewrites(t *testing.T) {
	src := `
func.func @chain(%x: i64) -> i64 {
  %c2 = arith.constant 2 : i64
  %c128 = arith.constant 128 : i64
  %c256 = arith.muli %c2, %c128 : i64
  %r = arith.divsi %x, %c256 : i64
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, []string{rules.ArithCore, rules.ConstantFold, rules.DivPow2})
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.divsi") != 0 {
		t.Errorf("folded-constant division not rewritten (rule composition failed):\n%s", out)
	}
	if !strings.Contains(out, "arith.constant 8 : i64") {
		t.Errorf("expected shift by 8:\n%s", out)
	}
}

// TestIdempotentOptimization: optimizing an already-optimized module is a
// no-op (up to printing).
func TestIdempotentOptimization(t *testing.T) {
	src := `
func.func @f(%x: i64) -> i64 {
  %c256 = arith.constant 256 : i64
  %r = arith.divsi %x, %c256 : i64
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	first := mlir.PrintModule(m, reg)
	opt := NewOptimizer(Options{RuleSources: rules.ImgConv()})
	if _, err := opt.OptimizeModule(m); err != nil {
		t.Fatal(err)
	}
	second := mlir.PrintModule(m, reg)
	if first != second {
		t.Errorf("not idempotent:\n%s\nvs\n%s", first, second)
	}
}

// TestEmptyRuleSetIsIdentity: with declarations but no rules, output is
// semantically identical input.
func TestEmptyRuleSetIsIdentity(t *testing.T) {
	src := `
func.func @f(%x: f64) -> f64 {
  %c = arith.constant 2.5 : f64
  %r = arith.mulf %x, %c : f64
  func.return %r : f64
}`
	m, rep, reg := optimize(t, src, []string{rules.ArithCore, rules.ArithFloat})
	if rep.NumRules != 0 {
		t.Errorf("rules = %d, want 0", rep.NumRules)
	}
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.mulf") != 1 {
		t.Errorf("identity translation lost ops:\n%s", out)
	}
}

// TestParserNeverPanics feeds quick-generated garbage to the MLIR parser;
// it must return errors, not panic.
func TestParserNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		m, reg := parseAttempt(s)
		_ = m
		_ = reg
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Structured near-misses (more likely to reach deep parser states).
	nearMisses := []string{
		"func.func @f(%x: i64) -> i64 { func.return %x : i64",
		"func.func @f() { %x = arith.constant : i64 }",
		"func.func @f() { scf.for %i = to step { } }",
		`func.func @f() { %r = "a.b"( : () -> i64 }`,
		"func.func @f(%x: tensor<axbxf64>) { func.return }",
		"module { module { } }",
	}
	for _, s := range nearMisses {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("parser panicked on %q: %v", s, r)
				}
			}()
			parseAttempt(s)
		}()
	}
}

func parseAttempt(s string) (*mlir.Module, error) {
	reg := dialectsRegistry()
	return mlir.ParseModule(s, reg)
}

func dialectsRegistry() *mlir.Registry {
	return dialects.NewRegistry()
}

// TestWhileLoopRewrite: the §7.2 rewrite reaches into scf.while's two
// regions (before with scf.condition, after with a block header).
func TestWhileLoopRewrite(t *testing.T) {
	src := `
func.func @halve(%n: i64) -> i64 {
  %zero = arith.constant 0 : i64
  %c1024 = arith.constant 1024 : i64
  %r = scf.while (%x = %n) : (i64) -> i64 {
    %cond = arith.cmpi sgt, %x, %zero : i64
    scf.condition(%cond) %x : i64
  } do {
  ^bb0(%y: i64):
    %next = arith.divsi %y, %c1024 : i64
    scf.yield %next : i64
  }
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.divsi") != 0 {
		t.Errorf("division inside while body not rewritten:\n%s", out)
	}
	if countOps(m, "arith.shrsi") != 1 {
		t.Errorf("expected one shrsi:\n%s", out)
	}
	if countOps(m, "scf.while") != 1 || countOps(m, "scf.condition") != 1 {
		t.Errorf("while structure lost:\n%s", out)
	}
	if !strings.Contains(out, "arith.constant 10 : i64") {
		t.Errorf("missing shift amount 10:\n%s", out)
	}
}

// TestHornerNeedsRuleInteraction: removing the distributivity rule from
// the §7.5 set prevents Horner's form from emerging — evidence for the
// paper's argument that the optimization arises from rule *interaction*
// that a hand-written pass would struggle to orchestrate.
func TestHornerNeedsRuleInteraction(t *testing.T) {
	src := `
func.func @poly(%x: f64, %a: f64, %b: f64, %c: f64) -> f64 {
  %c2 = arith.constant 2.0 : f64
  %x2 = math.powf %x, %c2 : f64
  %t1 = arith.mulf %b, %x : f64
  %t2 = arith.mulf %a, %x2 : f64
  %t3 = arith.addf %t1, %t2 : f64
  %t4 = arith.addf %c, %t3 : f64
  func.return %t4 : f64
}`
	full := rules.Horner
	crippled := strings.Replace(full, `(rewrite (arith_addf (arith_mulf ?m ?x ?a ?t) (arith_mulf ?n ?x ?a ?t) ?a ?t)
         (arith_mulf ?x (arith_addf ?m ?n ?a ?t) ?a ?t)
         :name "distribute")`, "", 1)
	if crippled == full {
		t.Fatal("failed to remove the distribute rule (text drifted)")
	}

	mFull, _, _ := optimize(t, src, []string{rules.ArithCore, rules.ArithFloat, full})
	mCrip, _, _ := optimize(t, src, []string{rules.ArithCore, rules.ArithFloat, crippled})

	if n := countOps(mFull, "arith.mulf"); n != 2 {
		t.Errorf("full rule set: mulf = %d, want 2 (Horner)", n)
	}
	if n := countOps(mCrip, "arith.mulf"); n <= 2 {
		t.Errorf("without distributivity: mulf = %d, expected > 2 (no Horner)", n)
	}
	// Both still eliminate powf (the expansion rule is independent).
	if countOps(mFull, "math.powf") != 0 || countOps(mCrip, "math.powf") != 0 {
		t.Error("pow expansion should fire in both configurations")
	}
}

// TestDeadLoopWithOpaqueBodySurvives: a loop whose result is unused must
// not be swept when its body holds an opaque (potentially effectful) op.
func TestDeadLoopWithOpaqueBodySurvives(t *testing.T) {
	src := `
func.func @keep(%n: index) -> index {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %zero = arith.constant 0 : i64
  %dead = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %zero) -> (i64) {
    %probe = "debug.effect"(%acc) : (i64) -> i64
    scf.yield %probe : i64
  }
  func.return %n : index
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "scf.for") != 1 || countOps(m, "debug.effect") != 1 {
		t.Errorf("dead loop with opaque body was swept:\n%s", out)
	}
}

// TestExplainRewrites: the optimizer can attach a proof to every rewritten
// operation — why the original equals its replacement.
func TestExplainRewrites(t *testing.T) {
	src := `
func.func @f(%x: i64) -> i64 {
  %c256 = arith.constant 256 : i64
  %r = arith.divsi %x, %c256 : i64
  func.return %r : i64
}`
	m, _ := parseModule(t, src)
	opt := NewOptimizer(Options{RuleSources: rules.ImgConv(), ExplainRewrites: true})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RewriteExplanations) != 1 {
		t.Fatalf("explanations = %d, want 1 (the divsi):\n%v", len(rep.RewriteExplanations), rep.RewriteExplanations)
	}
	proof := rep.RewriteExplanations[0]
	for _, want := range []string{"arith.divsi rewritten to arith.shrsi", "div-pow2-to-shift", "arith_shrsi"} {
		if !strings.Contains(proof, want) {
			t.Errorf("proof missing %q:\n%s", want, proof)
		}
	}
	t.Logf("proof:\n%s", proof)
}

// TestExplainRewritesNested: proofs also cover rewrites inside loop bodies.
func TestExplainRewritesNested(t *testing.T) {
	src := `
func.func @loop(%n: index) -> i64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %zero = arith.constant 0 : i64
  %c64 = arith.constant 64 : i64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %zero) -> (i64) {
    %iv = arith.index_cast %i : index to i64
    %q = arith.divsi %iv, %c64 : i64
    %next = arith.addi %acc, %q : i64
    scf.yield %next : i64
  }
  func.return %r : i64
}`
	m, _ := parseModule(t, src)
	opt := NewOptimizer(Options{RuleSources: rules.ImgConv(), ExplainRewrites: true})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RewriteExplanations) != 1 {
		t.Fatalf("explanations = %d, want 1:\n%v", len(rep.RewriteExplanations), rep.RewriteExplanations)
	}
	if !strings.Contains(rep.RewriteExplanations[0], "div-pow2-to-shift") {
		t.Errorf("nested proof missing rule name:\n%s", rep.RewriteExplanations[0])
	}
}

// TestExplainRewritesNoChange: nothing to explain when nothing rewrote.
func TestExplainRewritesNoChange(t *testing.T) {
	src := `
func.func @f(%x: i64) -> i64 {
  %c100 = arith.constant 100 : i64
  %r = arith.divsi %x, %c100 : i64
  func.return %r : i64
}`
	m, _ := parseModule(t, src)
	opt := NewOptimizer(Options{RuleSources: rules.ImgConv(), ExplainRewrites: true})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RewriteExplanations) != 0 {
		t.Errorf("unexpected explanations: %v", rep.RewriteExplanations)
	}
}
