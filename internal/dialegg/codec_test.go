package dialegg

import (
	"strings"
	"testing"

	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
)

// roundTrip inserts the term encode builds into a clone of the template
// of the rule set sources, extracts the clone and decodes the term's
// class, as a compile's translation and back-translation do. It also
// returns the term as a rendering encoder prints it.
func roundTrip[T any](t *testing.T, sources []string, codecs *Codecs, encode func(*Encoder) Term, decode func(*Decoder, egraph.Value) (T, error)) (T, string, error) {
	t.Helper()
	tmpl, err := NewOptimizer(Options{RuleSources: sources}).template()
	if err != nil {
		t.Fatal(err)
	}
	r := Encoder{codecs: codecs}
	text := encode(&r).n.String()
	p := tmpl.prog.Clone()
	e := Encoder{g: p.Graph(), fns: &tmpl.encs.fns, codecs: codecs}
	v := encode(&e).v
	if e.err != nil {
		var zero T
		return zero, text, e.err
	}
	back, err := decode(&Decoder{g: p.Graph(), ex: p.Extractor(), codecs: codecs}, v)
	return back, text, err
}

// tuple2Decl declares the constructor TupleTypeCodec produces.
const tuple2Decl = `(function Tuple2 (Type Type) Type)`

// TestTupleCodecRoundTrip: the ready-made Tuple2 codec encodes 2-tuples
// structurally, nested ones and tuple tensor elements included, and
// decodes them back.
func TestTupleCodecRoundTrip(t *testing.T) {
	c := &Codecs{Types: []TypeCodec{TupleTypeCodec()}}
	pair := mlir.TupleType{Elems: []mlir.Type{mlir.I64, mlir.F32}}
	for _, tc := range []struct {
		typ  mlir.Type
		want string
	}{
		{pair, "(Tuple2 (I64) (F32))"},
		{mlir.TupleType{Elems: []mlir.Type{pair, mlir.Index}}, "(Tuple2 (Tuple2 (I64) (F32)) (Index))"},
		{mlir.TensorOf(pair, 2), "(RankedTensor (vec-of 2) (Tuple2 (I64) (F32)))"},
	} {
		back, term, err := roundTrip(t, []string{tuple2Decl}, c, func(e *Encoder) Term { return e.Type(tc.typ) }, (*Decoder).Type)
		if term != tc.want {
			t.Errorf("%s eggified as %s, want %s", tc.typ, term, tc.want)
		}
		if err != nil {
			t.Errorf("%s: %v", tc.typ, err)
		} else if !mlir.TypeEqual(tc.typ, back) {
			t.Errorf("%s round-tripped to %s", tc.typ, back)
		}
	}
	// Without the codec the same type is opaque.
	var plain Encoder
	if got := plain.Type(pair).n.Head(); got != "OpaqueType" {
		t.Errorf("built-in encoding should be opaque, got %s", got)
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

// TestUndeclaredCodecHeadRejected: a codec whose head the rule sources do
// not declare fails the compile with an error naming the head.
func TestUndeclaredCodecHeadRejected(t *testing.T) {
	m, _ := parseModule(t, swapTwiceSrc)
	_, err := NewOptimizer(Options{Codecs: &Codecs{Types: []TypeCodec{TupleTypeCodec()}}}).OptimizeModule(m)
	if err == nil || !strings.Contains(err.Error(), `codec head "Tuple2" is not a declared function`) {
		t.Errorf("got error %v", err)
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
		Eggify: func(e *Encoder, a mlir.Attribute) []Term {
			text := a.(mlir.OpaqueAttr).Text
			return []Term{e.Str(strings.TrimSuffix(strings.TrimPrefix(text, "#gain<"), ">"))}
		},
		DeEggify: func(d *Decoder, args []egraph.Value) (mlir.Attribute, error) {
			return mlir.OpaqueAttr{Text: "#gain<" + d.Str(args[0]) + ">"}, nil
		},
	}
	c := &Codecs{Attrs: []AttrCodec{codec}}
	a := mlir.OpaqueAttr{Text: "#gain<high>"}
	back, term, err := roundTrip(t, []string{`(function Gain (String) Attr)`}, c, func(e *Encoder) Term { return e.Attr(a) }, (*Decoder).Attr)
	if term != `(Gain "high")` {
		t.Errorf("eggified as %s", term)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !mlir.AttrEqual(a, back) {
		t.Errorf("round trip gave %s", back)
	}
}
