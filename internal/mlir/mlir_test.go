package mlir

import (
	"testing"
)

func TestTypeStrings(t *testing.T) {
	tests := []struct {
		typ  Type
		want string
	}{
		{I1, "i1"},
		{I64, "i64"},
		{F32, "f32"},
		{Index, "index"},
		{NoneType{}, "none"},
		{TensorOf(F64, 3, 4), "tensor<3x4xf64>"},
		{TensorOf(I64), "tensor<i64>"},
		{RankedTensorType{Shape: []int64{DynamicDim, 3}, Elem: F32}, "tensor<?x3xf32>"},
		{UnrankedTensorType{Elem: F32}, "tensor<*xf32>"},
		{TupleType{Elems: []Type{I64, F32}}, "tuple<i64, f32>"},
		{ComplexType{Elem: F64}, "complex<f64>"},
		{FunctionType{Inputs: []Type{I64}, Results: []Type{F32}}, "(i64) -> f32"},
		{FunctionType{Inputs: nil, Results: []Type{F32, I64}}, "() -> (f32, i64)"},
		{FunctionType{Results: []Type{FunctionType{Inputs: []Type{I64}, Results: []Type{F32}}}}, "() -> ((i64) -> f32)"},
		{OpaqueType{Text: "!my.type<3>"}, "!my.type<3>"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("%T: got %q, want %q", tt.typ, got, tt.want)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !TypeEqual(TensorOf(F64, 2, 3), TensorOf(F64, 2, 3)) {
		t.Error("identical tensor types not equal")
	}
	if TypeEqual(TensorOf(F64, 2, 3), TensorOf(F64, 3, 2)) {
		t.Error("different shapes equal")
	}
	if TypeEqual(I64, F64) {
		t.Error("i64 equals f64")
	}
	if !TypeEqual(nil, nil) {
		t.Error("nil types should be equal")
	}
	if TypeEqual(nil, I64) {
		t.Error("nil equals i64")
	}
}

// typeText is t's String form, or "<nil>" for a nil type.
func typeText(t Type) string {
	if t == nil {
		return "<nil>"
	}
	return t.String()
}

// checkTypeEqualAgreesWithText reports every pair of types on which
// structural equality and equality of the printed forms disagree.
func checkTypeEqualAgreesWithText(t *testing.T, types []Type) {
	t.Helper()
	for _, a := range types {
		for _, b := range types {
			if got, want := TypeEqual(a, b), typeText(a) == typeText(b); got != want {
				t.Errorf("TypeEqual(%s, %s) = %v, but the printed forms are equal: %v", typeText(a), typeText(b), got, want)
			}
		}
	}
}

// TestTypeEqualAgreesWithText: TypeEqual compares structure without
// rendering, yet it must agree with comparing printed forms on every pair
// of types of every kind, opaque dialect types included.
func TestTypeEqualAgreesWithText(t *testing.T) {
	dyn := RankedTensorType{Shape: []int64{DynamicDim, 3}, Elem: F32}
	checkTypeEqualAgreesWithText(t, []Type{
		nil,
		I1, I64, IntegerType{Width: 64}, IntegerType{Width: 32},
		F32, F64, FloatType{Width: 64},
		Index, NoneType{},
		TensorOf(F64, 3, 4), TensorOf(F64, 3, 4), TensorOf(F64, 4, 3),
		TensorOf(F64, 3), TensorOf(F64, 3, 4, 1), TensorOf(F32, 3, 4),
		TensorOf(I64), RankedTensorType{Shape: []int64{}, Elem: I64},
		dyn, RankedTensorType{Shape: []int64{DynamicDim, 3}, Elem: F32},
		TensorOf(F32, 3, 3), TensorOf(F32, 3, DynamicDim),
		TensorOf(TensorOf(F32, 2), 3),
		UnrankedTensorType{Elem: F32}, UnrankedTensorType{Elem: F64},
		FunctionType{Inputs: []Type{dyn}, Results: []Type{F32}},
		FunctionType{Inputs: []Type{TensorOf(F32, DynamicDim, 3)}, Results: []Type{F32}},
		FunctionType{Inputs: []Type{TensorOf(F32, 3, 3)}, Results: []Type{F32}},
		FunctionType{Inputs: []Type{dyn}, Results: []Type{F32, I64}},
		FunctionType{Inputs: []Type{dyn}, Results: []Type{I64, F32}},
		FunctionType{}, FunctionType{Inputs: []Type{}, Results: []Type{}},
		FunctionType{Results: []Type{FunctionType{Inputs: []Type{I64}, Results: []Type{F32}}}},
		TupleType{Elems: []Type{I64, TensorOf(F32, DynamicDim)}},
		TupleType{Elems: []Type{I64, TensorOf(F32, 4)}},
		TupleType{Elems: []Type{I64}}, TupleType{}, TupleType{Elems: []Type{TupleType{}}},
		ComplexType{Elem: F64}, ComplexType{Elem: F32},
		OpaqueType{Text: "!my.type<3>"}, OpaqueType{Text: "!my.type<3>"}, OpaqueType{Text: "!my.type<4>"},
		TensorOf(OpaqueType{Text: "!my.type<3>"}, 2),
		IntegerType{Width: 4}, TensorOf(ComplexType{Elem: F32}, 2, 2),
	})
}

func TestTensorHelpers(t *testing.T) {
	tt := TensorOf(F64, 3, 4, 5)
	if tt.Rank() != 3 {
		t.Errorf("rank = %d", tt.Rank())
	}
	if tt.NumElements() != 60 {
		t.Errorf("elems = %d", tt.NumElements())
	}
	dyn := RankedTensorType{Shape: []int64{DynamicDim, 4}, Elem: F64}
	if dyn.NumElements() != -1 {
		t.Errorf("dynamic elems = %d", dyn.NumElements())
	}
	if !IsShaped(tt) || IsShaped(I64) {
		t.Error("IsShaped misclassifies")
	}
	if !TypeEqual(ElemTypeOf(tt), F64) || !TypeEqual(ElemTypeOf(I32), I32) {
		t.Error("ElemTypeOf misbehaves")
	}
}

func TestAttrStrings(t *testing.T) {
	tests := []struct {
		attr Attribute
		want string
	}{
		{IntegerAttr{Value: 5, Type: I64}, "5 : i64"},
		{IntegerAttr{Value: 1, Type: I1}, "true"},
		{IntegerAttr{Value: 0, Type: I1}, "false"},
		{FloatAttr{Value: 2.5, Type: F32}, "2.5 : f32"},
		{FloatAttr{Value: 1, Type: F64}, "1.0 : f64"},
		{StringAttr{Value: "hi"}, `"hi"`},
		{SymbolRefAttr{Symbol: "f"}, "@f"},
		{UnitAttr{}, "unit"},
		{FastMathAttr{Flag: FastMathFast}, "fastmath<fast>"},
		{FastMathAttr{Flag: FastMathNone}, "fastmath<none>"},
		{ArrayAttr{Elems: []Attribute{IntegerAttr{Value: 1, Type: I64}}}, "[1 : i64]"},
		{DenseAttr{Splat: FloatAttr{Value: 0.5, Type: F64}, Type: TensorOf(F64, 4)}, "dense<0.5> : tensor<4xf64>"},
		{TypeAttr{Type: F32}, "f32"},
	}
	for _, tt := range tests {
		if got := tt.attr.String(); got != tt.want {
			t.Errorf("%T: got %q, want %q", tt.attr, got, tt.want)
		}
	}
}

func TestCmpPredicates(t *testing.T) {
	for p, name := range cmpFNames {
		back, err := ParseCmpFPredicate(name)
		if err != nil || back != p {
			t.Errorf("cmpf %s round trip: %v %v", name, back, err)
		}
	}
	for p, name := range cmpINames {
		back, err := ParseCmpIPredicate(name)
		if err != nil || back != p {
			t.Errorf("cmpi %s round trip: %v %v", name, back, err)
		}
	}
	if _, err := ParseCmpFPredicate("bogus"); err == nil {
		t.Error("bogus cmpf predicate accepted")
	}
	// The MLIR enum encodings the DialEgg translation exposes (§5.4: oge
	// is 3).
	if int(CmpFOGE) != 3 {
		t.Errorf("oge = %d, want 3 (paper §5.4)", int(CmpFOGE))
	}
}

func TestFastMathFlags(t *testing.T) {
	for _, f := range []FastMathFlag{FastMathNone, FastMathFast, FastMathNNaN, FastMathNInf, FastMathContract, FastMathReassoc} {
		back, err := ParseFastMathFlag(f.String())
		if err != nil || back != f {
			t.Errorf("fastmath %s round trip failed", f)
		}
	}
	if _, err := ParseFastMathFlag("warp"); err == nil {
		t.Error("bogus fastmath flag accepted")
	}
}

func TestGetSetAttr(t *testing.T) {
	op := NewOperation("test.op", nil, nil)
	if _, ok := op.GetAttr("x"); ok {
		t.Error("attr present on empty op")
	}
	op.SetAttr("x", IntegerAttr{Value: 1, Type: I64})
	op.SetAttr("y", StringAttr{Value: "s"})
	op.SetAttr("x", IntegerAttr{Value: 2, Type: I64}) // overwrite
	a, ok := op.GetAttr("x")
	if !ok || a.(IntegerAttr).Value != 2 {
		t.Errorf("GetAttr x = %v, %v", a, ok)
	}
	if len(op.Attrs) != 2 {
		t.Errorf("attrs = %d, want 2 (overwrite, not append)", len(op.Attrs))
	}
}

func TestOperationDialect(t *testing.T) {
	if d := NewOperation("arith.addi", nil, nil).Dialect(); d != "arith" {
		t.Errorf("dialect = %q", d)
	}
	if d := NewOperation("arith.index_cast", nil, nil).Dialect(); d != "arith" {
		t.Errorf("dialect = %q", d)
	}
	if d := NewOperation("noDot", nil, nil).Dialect(); d != "" {
		t.Errorf("dialect = %q", d)
	}
}

func TestModuleHelpers(t *testing.T) {
	m := NewModule()
	f := NewOperation("func.func", nil, nil)
	f.SetAttr("sym_name", StringAttr{Value: "foo"})
	f.SetAttr("function_type", TypeAttr{Type: FunctionType{Inputs: []Type{I64}, Results: []Type{I64}}})
	f.AddRegion().AddBlock().AddArg(I64, "x")
	m.Body().Append(f)

	if len(m.Funcs()) != 1 {
		t.Fatalf("funcs = %d", len(m.Funcs()))
	}
	got, ok := m.FindFunc("foo")
	if !ok || got != f {
		t.Error("FindFunc failed")
	}
	if _, ok := m.FindFunc("bar"); ok {
		t.Error("FindFunc found ghost")
	}
	if FuncName(f) != "foo" {
		t.Errorf("FuncName = %q", FuncName(f))
	}
	ft, ok := FuncType(f)
	if !ok || len(ft.Inputs) != 1 {
		t.Error("FuncType failed")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	m := NewModule()
	for i := 0; i < 5; i++ {
		m.Body().Append(NewOperation("test.op", nil, nil))
	}
	count := 0
	m.Walk(func(op *Operation) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("walk visited %d, want 3 (early stop)", count)
	}
}

func TestCloneIsolation(t *testing.T) {
	op := NewOperation("a.b", nil, []Type{I64})
	inner := NewOperation("a.c", []*Value{op.Results[0]}, []Type{I64})
	blk := op.AddRegion().AddBlock()
	blk.Append(inner)

	c := op.Clone()
	// The cloned inner op must reference the cloned outer result, not the
	// original.
	cInner := c.Regions[0].First().Ops[0]
	if cInner.Operands[0] != c.Results[0] {
		t.Error("clone did not remap internal operand references")
	}
	if cInner.Operands[0] == op.Results[0] {
		t.Error("clone shares values with original")
	}
}

func TestPrinterNameCollisions(t *testing.T) {
	// Two values with the same source name must not print identically.
	reg := NewRegistry()
	op1 := NewOperation("t.a", nil, []Type{I64})
	op1.Results[0].Name = "x"
	op2 := NewOperation("t.b", nil, []Type{I64})
	op2.Results[0].Name = "x"
	ps := newPrintState(reg, false)
	n1 := ps.name(op1.Results[0])
	n2 := ps.name(op2.Results[0])
	if n1 == n2 {
		t.Errorf("colliding names: %s vs %s", n1, n2)
	}
	// Stable: asking again returns the same name.
	if ps.name(op1.Results[0]) != n1 {
		t.Error("value name not stable")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&OpDef{Name: "x.y"})
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.Register(&OpDef{Name: "x.y"})
}

func TestRegistryQueries(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&OpDef{Name: "a.one", Traits: Traits{Pure: true}})
	reg.Register(&OpDef{Name: "b.two"})
	if ds := reg.Dialects(); len(ds) != 2 || ds[0] != "a" || ds[1] != "b" {
		t.Errorf("dialects = %v", ds)
	}
	if names := reg.OpNames(); len(names) != 2 {
		t.Errorf("op names = %v", names)
	}
	if !reg.IsPure(NewOperation("a.one", nil, nil)) {
		t.Error("a.one should be pure")
	}
	if reg.IsPure(NewOperation("c.unknown", nil, nil)) {
		t.Error("unknown ops must be conservatively impure")
	}
}

func TestVerifyNilOperand(t *testing.T) {
	reg := NewRegistry()
	op := NewOperation("t.bad", []*Value{nil}, nil)
	if err := reg.Verify(op); err == nil {
		t.Error("nil operand accepted")
	}
}

func TestParseAttrDictQuotedNames(t *testing.T) {
	p := &Parser{src: `{"weird name" = 5 : i64, flag}`, reg: NewRegistry()}
	p.pushScope()
	attrs, err := p.ParseOptionalAttrDict()
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0].Name != "weird name" {
		t.Errorf("attrs = %+v", attrs)
	}
	if _, ok := attrs[1].Attr.(UnitAttr); !ok {
		t.Errorf("bare attr should be unit, got %T", attrs[1].Attr)
	}
}

func TestParseTypeErrors(t *testing.T) {
	bad := []string{"tensor<", "tensor<3x>", "tensor<3yf64>", "tuple<i64", "qvack", "(i64 ->"}
	for _, src := range bad {
		p := &Parser{src: src, reg: NewRegistry()}
		if _, err := p.ParseType(); err == nil {
			t.Errorf("ParseType(%q) should fail", src)
		}
	}
}

func TestOpaqueTypeRoundTrip(t *testing.T) {
	p := &Parser{src: "!quantum.qubit<5>", reg: NewRegistry()}
	typ, err := p.ParseType()
	if err != nil {
		t.Fatal(err)
	}
	if typ.String() != "!quantum.qubit<5>" {
		t.Errorf("opaque type = %q", typ)
	}
}

func TestBlockHelpers(t *testing.T) {
	r := &Region{}
	if r.First() != nil {
		t.Error("empty region First should be nil")
	}
	b := r.AddBlock()
	if r.First() != b {
		t.Error("First != added block")
	}
	if b.Terminator() != nil {
		t.Error("empty block terminator should be nil")
	}
	op := NewOperation("t.x", nil, nil)
	b.Append(op)
	if b.Terminator() != op || op.ParentBlock != b {
		t.Error("Append bookkeeping wrong")
	}
	arg := b.AddArg(I64, "a")
	if !arg.IsBlockArg() || arg.ArgIdx != 0 || arg.Type() != I64 {
		t.Error("AddArg bookkeeping wrong")
	}
}
