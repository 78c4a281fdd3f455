package dialegg

import (
	"strings"
	"testing"

	"dialegg/internal/mlir"
	"dialegg/internal/sexp"
)

// TestTupleCodecRoundTrip: the ready-made Tuple2 codec eggifies and
// de-eggifies 2-tuples structurally.
func TestTupleCodecRoundTrip(t *testing.T) {
	c := &Codecs{Types: []TypeCodec{TupleTypeCodec()}}
	typ := mlir.TupleType{Elems: []mlir.Type{mlir.I64, mlir.F32}}
	term, err := c.TypeToTerm(typ)
	if err != nil {
		t.Fatal(err)
	}
	if got := term.String(); got != "(Tuple2 (I64) (F32))" {
		t.Errorf("eggified as %s", got)
	}
	back, err := c.TermToType(term)
	if err != nil {
		t.Fatal(err)
	}
	if !mlir.TypeEqual(typ, back) {
		t.Errorf("round trip gave %s", back)
	}
	// Without the codec the same type is opaque.
	plain := TypeToTerm(typ)
	if plain.Head() != "OpaqueType" {
		t.Errorf("built-in encoding should be opaque, got %s", plain)
	}
}

// swapTwiceSrc is a custom dialect whose ops use tuple types, and
// swapTwiceRules a rewrite that matches on the structurally eggified
// Tuple2.
const (
	swapTwiceSrc = `
func.func @swap_twice(%p: tuple<i64, f32>) -> tuple<i64, f32> {
  %q = "pair.swap"(%p) : (tuple<i64, f32>) -> tuple<f32, i64>
  %r = "pair.swap"(%q) : (tuple<f32, i64>) -> tuple<i64, f32>
  func.return %r : tuple<i64, f32>
}`
	swapTwiceRules = `
(function Tuple2 (Type Type) Type)
(function pair_swap (Op Type) Op :cost 4)
; swapping twice is the identity — provable only with structural tuples,
; because the rule must relate the inner and outer element types.
(rewrite (pair_swap (pair_swap ?x (Tuple2 ?b ?a)) (Tuple2 ?a ?b)) ?x)
`
)

// TestCodecEndToEnd runs the full optimizer over swapTwiceSrc with the
// Tuple2 codec: the rewrite is impossible with the opaque encoding,
// because opaque type text is a black box to patterns.
func TestCodecEndToEnd(t *testing.T) {
	m, reg := parseModule(t, swapTwiceSrc)
	opt := NewOptimizer(Options{
		RuleSources: []string{swapTwiceRules},
		Codecs:      &Codecs{Types: []TypeCodec{TupleTypeCodec()}},
	})
	if _, err := opt.OptimizeModule(m); err != nil {
		t.Fatal(err)
	}
	out := mlir.PrintModule(m, reg)
	if countOps(m, "pair.swap") != 0 {
		t.Errorf("double swap not cancelled:\n%s", out)
	}
	// The function must now return its argument directly.
	f := m.Funcs()[0]
	ret := f.Regions[0].First().Terminator()
	if ret.Operands[0] != f.Regions[0].First().Args[0] {
		t.Errorf("return is not the argument:\n%s", out)
	}
}

// TestCodecHeadMismatchRejected: a codec emitting the wrong head is a
// configuration error, reported eagerly.
func TestCodecHeadMismatchRejected(t *testing.T) {
	bad := TypeCodec{
		Head:    "Right",
		Matches: func(t mlir.Type) bool { return mlir.TypeEqual(t, mlir.I64) },
		Eggify: func(t mlir.Type) (*sexp.Node, error) {
			return sexp.List(sexp.Symbol("Wrong")), nil
		},
	}
	c := &Codecs{Types: []TypeCodec{bad}}
	if _, err := c.TypeToTerm(mlir.I64); err == nil || !strings.Contains(err.Error(), "Wrong") {
		t.Errorf("head mismatch not reported: %v", err)
	}
}

// TestAttrCodec: custom attribute eggifier for an opaque attribute kind.
func TestAttrCodec(t *testing.T) {
	codec := AttrCodec{
		Head: "Gain",
		Matches: func(a mlir.Attribute) bool {
			oa, ok := a.(mlir.OpaqueAttr)
			return ok && strings.HasPrefix(oa.Text, "#gain<")
		},
		Eggify: func(a mlir.Attribute) (*sexp.Node, error) {
			text := a.(mlir.OpaqueAttr).Text
			return sexp.List(sexp.Symbol("Gain"), sexp.String(strings.TrimSuffix(strings.TrimPrefix(text, "#gain<"), ">"))), nil
		},
		DeEggify: func(n *sexp.Node) (mlir.Attribute, error) {
			return mlir.OpaqueAttr{Text: "#gain<" + n.Args()[0].Str + ">"}, nil
		},
	}
	c := &Codecs{Attrs: []AttrCodec{codec}}
	a := mlir.OpaqueAttr{Text: "#gain<high>"}
	term, err := c.AttrToTerm(a)
	if err != nil {
		t.Fatal(err)
	}
	if term.String() != `(Gain "high")` {
		t.Errorf("eggified as %s", term)
	}
	back, err := c.TermToAttr(term)
	if err != nil {
		t.Fatal(err)
	}
	if !mlir.AttrEqual(a, back) {
		t.Errorf("round trip gave %s", back)
	}
}
