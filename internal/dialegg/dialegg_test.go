package dialegg

import (
	"reflect"
	"strings"
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

func parseModule(t *testing.T, src string) (*mlir.Module, *mlir.Registry) {
	t.Helper()
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(src, reg)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return m, reg
}

func optimize(t *testing.T, src string, ruleSrcs []string) (*mlir.Module, *Report, *mlir.Registry) {
	t.Helper()
	m, reg := parseModule(t, src)
	opt := NewOptimizer(Options{RuleSources: ruleSrcs})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if err := reg.Verify(m.Op); err != nil {
		t.Fatalf("optimized module fails verification: %v\n%s", err, mlir.PrintModule(m, reg))
	}
	return m, rep, reg
}

func countOps(m *mlir.Module, name string) int {
	n := 0
	m.Walk(func(op *mlir.Operation) bool {
		if op.Name == name {
			n++
		}
		return true
	})
	return n
}

// TestRoundTripNoRules: with no rewrite rules, DialEgg must reproduce an
// equivalent program (§5.3: the semantics is preserved by translation).
func TestRoundTripNoRules(t *testing.T) {
	src := `
func.func @classic(%a: i64) -> i64 {
  %c2 = arith.constant 2 : i64
  %a2 = arith.muli %a, %c2 : i64
  %a_2 = arith.divsi %a2, %c2 : i64
  func.return %a_2 : i64
}`
	m, rep, reg := optimize(t, src, []string{rules.ArithCore})
	out := mlir.PrintModule(m, reg)
	for _, want := range []string{"arith.muli", "arith.divsi", "func.return"} {
		if !strings.Contains(out, want) {
			t.Errorf("round trip lost %q:\n%s", want, out)
		}
	}
	if rep.NumTranslatedOps != 4 {
		t.Errorf("translated ops = %d, want 4", rep.NumTranslatedOps)
	}
	if rep.NumOpaqueOps != 0 {
		t.Errorf("opaque ops = %d, want 0", rep.NumOpaqueOps)
	}
}

// TestConstantFoldingCaseStudy reproduces §7.1 end to end.
func TestConstantFoldingCaseStudy(t *testing.T) {
	src := `
func.func @fold() -> i32 {
  %c2 = arith.constant 2 : i32
  %c3 = arith.constant 3 : i32
  %sum = arith.addi %c2, %c3 : i32
  func.return %sum : i32
}`
	m, _, reg := optimize(t, src, []string{rules.ArithCore, rules.ConstantFold})
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.addi") != 0 {
		t.Errorf("addi survived folding:\n%s", out)
	}
	if !strings.Contains(out, "arith.constant 5 : i32") {
		t.Errorf("missing folded constant 5:\n%s", out)
	}
}

// TestDivPow2CaseStudy reproduces §7.2: x/256 -> x>>8, while x/100 stays.
func TestDivPow2CaseStudy(t *testing.T) {
	src := `
func.func @div(%x: i64) -> i64 {
  %c256 = arith.constant 256 : i64
  %r = arith.divsi %x, %c256 : i64
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.divsi") != 0 {
		t.Errorf("division by 256 not rewritten:\n%s", out)
	}
	if countOps(m, "arith.shrsi") != 1 {
		t.Errorf("expected one shrsi:\n%s", out)
	}
	if !strings.Contains(out, "arith.constant 8 : i64") {
		t.Errorf("missing shift amount 8:\n%s", out)
	}
}

func TestDivNonPow2Unchanged(t *testing.T) {
	src := `
func.func @div(%x: i64) -> i64 {
  %c100 = arith.constant 100 : i64
  %r = arith.divsi %x, %c100 : i64
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	if countOps(m, "arith.divsi") != 1 || countOps(m, "arith.shrsi") != 0 {
		t.Errorf("non-power-of-two division must stay:\n%s", mlir.PrintModule(m, reg))
	}
}

// TestDivPow2InsideLoop checks rewriting reaches into scf.for bodies
// (regions/blocks, §4.4).
func TestDivPow2InsideLoop(t *testing.T) {
	src := `
func.func @loop(%n: index) -> i64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %zero = arith.constant 0 : i64
  %c256 = arith.constant 256 : i64
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %zero) -> (i64) {
    %iv = arith.index_cast %i : index to i64
    %q = arith.divsi %iv, %c256 : i64
    %next = arith.addi %acc, %q : i64
    scf.yield %next : i64
  }
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.divsi") != 0 {
		t.Errorf("division inside loop not rewritten:\n%s", out)
	}
	if countOps(m, "arith.shrsi") != 1 {
		t.Errorf("expected one shrsi inside loop:\n%s", out)
	}
	if countOps(m, "scf.for") != 1 {
		t.Errorf("loop structure lost:\n%s", out)
	}
}

// TestFastInvSqrtCaseStudy reproduces §7.3: fastmath 1/sqrt(x) becomes a
// call to @fast_inv_sqrt; without fastmath it must not.
func TestFastInvSqrtCaseStudy(t *testing.T) {
	src := `
func.func @inv(%x: f32) -> f32 {
  %c1 = arith.constant 1.0 : f32
  %dist = math.sqrt %x fastmath<fast> : f32
  %inv_dist = arith.divf %c1, %dist fastmath<fast> : f32
  func.return %inv_dist : f32
}`
	m, _, reg := optimize(t, src, rules.VecNorm())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "func.call") != 1 {
		t.Fatalf("expected a call to @fast_inv_sqrt:\n%s", out)
	}
	if !strings.Contains(out, "@fast_inv_sqrt(") {
		t.Errorf("wrong callee:\n%s", out)
	}
	// The sqrt and div must be gone (swept as dead after the rewrite).
	if countOps(m, "math.sqrt") != 0 || countOps(m, "arith.divf") != 0 {
		t.Errorf("dead sqrt/div survived:\n%s", out)
	}
}

func TestFastInvSqrtRequiresFastMath(t *testing.T) {
	src := `
func.func @inv(%x: f32) -> f32 {
  %c1 = arith.constant 1.0 : f32
  %dist = math.sqrt %x : f32
  %inv_dist = arith.divf %c1, %dist : f32
  func.return %inv_dist : f32
}`
	m, _, reg := optimize(t, src, rules.VecNorm())
	if countOps(m, "func.call") != 0 {
		t.Errorf("rewrite fired without fastmath<fast>:\n%s", mlir.PrintModule(m, reg))
	}
}

// TestMatmulAssocCaseStudy reproduces §7.4: (XY)Z with shapes 100x10,
// 10x150, 150x8 is re-bracketed to X(YZ), cutting 270,000 scalar
// multiplications to 20,000.
func TestMatmulAssocCaseStudy(t *testing.T) {
	src := `
func.func @two_mm(%A: tensor<100x10xf64>, %B: tensor<10x150xf64>, %C: tensor<150x8xf64>) -> tensor<100x8xf64> {
  %e1 = tensor.empty() : tensor<100x150xf64>
  %AB = linalg.matmul ins(%A, %B : tensor<100x10xf64>, tensor<10x150xf64>) outs(%e1 : tensor<100x150xf64>) -> tensor<100x150xf64>
  %e2 = tensor.empty() : tensor<100x8xf64>
  %r = linalg.matmul ins(%AB, %C : tensor<100x150xf64>, tensor<150x8xf64>) outs(%e2 : tensor<100x8xf64>) -> tensor<100x8xf64>
  func.return %r : tensor<100x8xf64>
}`
	m, _, reg := optimize(t, src, rules.MatmulChain())
	out := mlir.PrintModule(m, reg)
	var total int64
	m.Walk(func(op *mlir.Operation) bool {
		if op.Name == "linalg.matmul" {
			a := op.Operands[0].Typ.(mlir.RankedTensorType)
			b := op.Operands[1].Typ.(mlir.RankedTensorType)
			total += a.Shape[0] * a.Shape[1] * b.Shape[1]
		}
		return true
	})
	if total != 20000 {
		t.Errorf("multiplication count = %d, want 20000 (X(YZ) bracketing):\n%s", total, out)
	}
	// The intermediate type must be the new 10x8 product.
	if !strings.Contains(out, "tensor<10x8xf64>") {
		t.Errorf("missing Y*Z intermediate tensor<10x8xf64>:\n%s", out)
	}
}

// TestOpaqueElementTypesVerify: element types with no egglog encoding
// (complex<f32>, i4) come back from the e-graph as OpaqueTypes holding
// their text. The rebuilt matmuls must still verify against the function
// arguments and the opaque tensor.extract, which hold the parsed types.
func TestOpaqueElementTypesVerify(t *testing.T) {
	for _, elem := range []string{"complex<f32>", "i4"} {
		src := strings.ReplaceAll(`
func.func @mm(%A: tensor<4x2xELEM>, %B: tensor<2x6xELEM>, %C: tensor<6x3xELEM>, %O1: tensor<4x6xELEM>, %O2: tensor<4x3xELEM>, %i: index) -> ELEM {
  %AB = linalg.matmul ins(%A, %B : tensor<4x2xELEM>, tensor<2x6xELEM>) outs(%O1 : tensor<4x6xELEM>) -> tensor<4x6xELEM>
  %r = linalg.matmul ins(%AB, %C : tensor<4x6xELEM>, tensor<6x3xELEM>) outs(%O2 : tensor<4x3xELEM>) -> tensor<4x3xELEM>
  %x = tensor.extract %r[%i, %i] : tensor<4x3xELEM>
  func.return %x : ELEM
}`, "ELEM", elem)
		m, _, reg := optimize(t, src, rules.MatmulChain())
		out := mlir.PrintModule(m, reg)
		// The B*C product shows that the matmuls were rebuilt.
		if want := "tensor<2x3x" + elem + ">"; !strings.Contains(out, want) {
			t.Errorf("%s: missing B*C intermediate %s:\n%s", elem, want, out)
		}
	}
}

// TestHornerCaseStudy reproduces §7.5: c + b*x + a*x^2 becomes Horner
// form with 2 multiplications, 2 additions, and no powf.
func TestHornerCaseStudy(t *testing.T) {
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
	m, rep, reg := optimize(t, src, rules.Poly())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "math.powf") != 0 {
		t.Errorf("powf survived Horner rewriting:\n%s", out)
	}
	if n := countOps(m, "arith.mulf"); n != 2 {
		t.Errorf("mulf count = %d, want 2 (Horner form):\n%s", n, out)
	}
	if n := countOps(m, "arith.addf"); n != 2 {
		t.Errorf("addf count = %d, want 2 (Horner form):\n%s", n, out)
	}
	if rep.Run.Iterations == 0 {
		t.Error("saturation did not run")
	}
}

// TestOpaqueOpsSurvive: operations without egglog declarations must pass
// through the optimizer unchanged (§4.3's key dialect-agnostic feature).
func TestOpaqueOpsSurvive(t *testing.T) {
	src := `
func.func @mix(%x: i64) -> i64 {
  %c256 = arith.constant 256 : i64
  %y = "mydialect.mystery"(%x) {mode = "warp"} : (i64) -> i64
  %r = arith.divsi %y, %c256 : i64
  func.return %r : i64
}`
	m, rep, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "mydialect.mystery") != 1 {
		t.Fatalf("opaque op lost:\n%s", out)
	}
	if !strings.Contains(out, `mode = "warp"`) {
		t.Errorf("opaque attribute lost:\n%s", out)
	}
	// The division *of the opaque result* must still be rewritten.
	if countOps(m, "arith.shrsi") != 1 {
		t.Errorf("rewrite around opaque op failed:\n%s", out)
	}
	if rep.NumOpaqueOps != 1 {
		t.Errorf("NumOpaqueOps = %d, want 1", rep.NumOpaqueOps)
	}
}

// TestOpaqueOperandProducerPreserved: a pure op feeding only an opaque op
// is invisible to the e-graph but must be re-emitted.
func TestOpaqueOperandProducerPreserved(t *testing.T) {
	src := `
func.func @feed(%x: i64) -> i64 {
  %c3 = arith.constant 3 : i64
  %y = arith.muli %x, %c3 : i64
  %z = "mydialect.sink"(%y) : (i64) -> i64
  func.return %z : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	if countOps(m, "arith.muli") != 1 {
		t.Errorf("producer of opaque operand lost:\n%s", out)
	}
	if countOps(m, "mydialect.sink") != 1 {
		t.Errorf("opaque op lost:\n%s", out)
	}
}

// TestSqrtAbsTranslation reproduces the §5.4 example's shape: the mixed
// dialect function translates with the documented constructs and survives
// a round trip.
func TestSqrtAbsTranslation(t *testing.T) {
	src := `
func.func @sqrt_abs(%x: f32) -> f32 {
  %zero = arith.constant 0.0 : f32
  %cond = arith.cmpf oge, %x, %zero : f32
  %sqrt = scf.if %cond -> (f32) {
    %s = math.sqrt %x fastmath<fast> : f32
    scf.yield %s : f32
  } else {
    %neg = arith.negf %x : f32
    %s = math.sqrt %neg : f32
    scf.yield %s : f32
  }
  func.return %sqrt : f32
}`
	orig, _ := parseModule(t, src)
	prog, err := NewOptimizer(Options{RuleSources: rules.VecNorm()}).EggProgram(orig)
	if err != nil {
		t.Fatal(err)
	}
	m, _, reg := optimize(t, src, rules.VecNorm())
	out := mlir.PrintModule(m, reg)
	for _, want := range []string{"scf.if", "else", "math.sqrt", "arith.negf", "fastmath<fast>"} {
		if !strings.Contains(out, want) {
			t.Errorf("round trip lost %q:\n%s", want, out)
		}
	}
	// The generated egglog program must use the constructs from §5.4.
	for _, want := range []string{"(Value 0 (F32))", "arith_cmpf", "scf_if", "(Reg (vec-of (Blk", "func_return", `(NamedAttr "fastmath" (arith_fastmath (fast)))`} {
		if !strings.Contains(prog, want) {
			t.Errorf("egglog translation missing %q:\n%s", want, prog)
		}
	}
}

// TestSharedSubtermsBecomeOneSSAValue: an e-node used twice extracts into
// a single SSA definition with two uses (§5.3).
func TestSharedSubtermsBecomeOneSSAValue(t *testing.T) {
	src := `
func.func @share(%x: i64) -> i64 {
  %c512 = arith.constant 512 : i64
  %a = arith.divsi %x, %c512 : i64
  %b = arith.divsi %x, %c512 : i64
  %r = arith.addi %a, %b : i64
  func.return %r : i64
}`
	m, _, reg := optimize(t, src, rules.ImgConv())
	out := mlir.PrintModule(m, reg)
	// Both divisions rewrite to the same shift e-node; the rebuilt program
	// must contain exactly one shrsi.
	if n := countOps(m, "arith.shrsi"); n != 1 {
		t.Errorf("shared shift emitted %d times, want 1:\n%s", n, out)
	}
}

func TestReportPhases(t *testing.T) {
	src := `
func.func @f(%x: i64) -> i64 {
  %c4 = arith.constant 4 : i64
  %r = arith.divsi %x, %c4 : i64
  func.return %r : i64
}`
	_, rep, _ := optimize(t, src, rules.ImgConv())
	if rep.EggTotal <= 0 || rep.MLIRToEgg < 0 || rep.EggToMLIR < 0 {
		t.Errorf("phase timings not recorded: %+v", rep)
	}
	if rep.Saturation <= 0 {
		t.Error("saturation time not recorded")
	}
	if rep.NumRules != 1 {
		t.Errorf("NumRules = %d, want 1 (div-pow2)", rep.NumRules)
	}
}

func TestEncodingNames(t *testing.T) {
	cases := []struct{ mlirName, eggName string }{
		{"arith.addi", "arith_addi"},
		{"arith.index_cast", "arith_index_cast"},
		{"linalg.matmul", "linalg_matmul"},
	}
	for _, c := range cases {
		if got := EggOpName(c.mlirName); got != c.eggName {
			t.Errorf("EggOpName(%s) = %s", c.mlirName, got)
		}
		if got := MLIROpName(c.eggName); got != c.mlirName {
			t.Errorf("MLIROpName(%s) = %s", c.eggName, got)
		}
	}
}

// TestTypeTermRoundTrip inserts every built-in type encoding into a
// template clone, extracts it and decodes it back.
func TestTypeTermRoundTrip(t *testing.T) {
	types := []mlir.Type{
		mlir.I1, mlir.I8, mlir.I16, mlir.I32, mlir.I64,
		mlir.F16, mlir.F32, mlir.F64, mlir.Index, mlir.NoneType{},
		mlir.TensorOf(mlir.F64, 3, 4),
		mlir.TensorOf(mlir.I64, 2, 3, 4),
		mlir.TensorOf(mlir.F32),
		mlir.UnrankedTensorType{Elem: mlir.F32},
		// No structural encoding: these travel as OpaqueType terms holding
		// their text, and come back as the types the parser makes of it.
		mlir.ComplexType{Elem: mlir.F32}, mlir.IntegerType{Width: 4},
		mlir.TensorOf(mlir.ComplexType{Elem: mlir.F64}, 2, 2),
		mlir.TupleType{Elems: []mlir.Type{mlir.I64, mlir.TensorOf(mlir.F32, 4)}},
		mlir.FunctionType{Inputs: []mlir.Type{mlir.I64}, Results: []mlir.Type{mlir.F32}},
	}
	for _, typ := range types {
		back, term, err := roundTrip(t, nil, nil, func(e *Encoder) Term { return e.Type(typ) }, (*Decoder).Type)
		if err != nil {
			t.Errorf("type %s via %s: %v", typ, term, err)
			continue
		}
		if !mlir.TypeEqual(typ, back) || reflect.TypeOf(back) != reflect.TypeOf(typ) {
			t.Errorf("type %s (%T) round-tripped to %s (%T) via %s", typ, typ, back, back, term)
		}
	}
}

// TestAttrTermRoundTrip does the same for every attribute kind and every
// fastmath flag.
func TestAttrTermRoundTrip(t *testing.T) {
	attrs := []mlir.Attribute{
		mlir.IntegerAttr{Value: 42, Type: mlir.I64},
		mlir.IntegerAttr{Value: -1, Type: mlir.Index},
		mlir.FloatAttr{Value: 2.5, Type: mlir.F32},
		mlir.StringAttr{Value: "hello"},
		mlir.SymbolRefAttr{Symbol: "fast_inv_sqrt"},
		mlir.UnitAttr{},
		mlir.TypeAttr{Type: mlir.F64},
		mlir.DenseAttr{Splat: mlir.FloatAttr{Value: 0, Type: mlir.F64}, Type: mlir.TensorOf(mlir.F64, 4)},
		mlir.OpaqueAttr{Text: "#gain<high>"},
	}
	for flag := range fastMathFlags {
		attrs = append(attrs, mlir.FastMathAttr{Flag: mlir.FastMathFlag(flag)})
	}
	for _, a := range attrs {
		back, term, err := roundTrip(t, nil, nil, func(e *Encoder) Term { return e.Attr(a) }, (*Decoder).Attr)
		if err != nil {
			t.Errorf("attr %s via %s: %v", a, term, err)
			continue
		}
		if !mlir.AttrEqual(a, back) {
			t.Errorf("attr %s round-tripped to %s via %s", a, back, term)
		}
	}
}
