package sexp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustParseOne(t *testing.T, src string) *Node {
	t.Helper()
	n, err := ParseOne(src)
	if err != nil {
		t.Fatalf("ParseOne(%q): %v", src, err)
	}
	return n
}

func TestParseAtoms(t *testing.T) {
	tests := []struct {
		src  string
		kind Kind
	}{
		{"foo", KindSymbol},
		{"?x", KindSymbol},
		{"vec-of", KindSymbol},
		{"-", KindSymbol},
		{"+", KindSymbol},
		{"<=", KindSymbol},
		{"42", KindInt},
		{"-7", KindInt},
		{"+7", KindInt},
		{"3.5", KindFloat},
		{"-0.25", KindFloat},
		{"1e9", KindFloat},
		{`"hello"`, KindString},
	}
	for _, tt := range tests {
		n := mustParseOne(t, tt.src)
		if n.Kind != tt.kind {
			t.Errorf("Parse(%q) kind = %v, want %v", tt.src, n.Kind, tt.kind)
		}
	}
}

func TestParseValues(t *testing.T) {
	if n := mustParseOne(t, "-42"); n.Int != -42 {
		t.Errorf("int value = %d, want -42", n.Int)
	}
	if n := mustParseOne(t, "2.5"); n.Float != 2.5 {
		t.Errorf("float value = %g, want 2.5", n.Float)
	}
	if n := mustParseOne(t, `"a\nb\"c"`); n.Str != "a\nb\"c" {
		t.Errorf("string value = %q", n.Str)
	}
}

func TestParseList(t *testing.T) {
	n := mustParseOne(t, `(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))`)
	if n.Head() != "rewrite" {
		t.Fatalf("Head = %q, want rewrite", n.Head())
	}
	if len(n.Args()) != 2 {
		t.Fatalf("Args = %d, want 2", len(n.Args()))
	}
	lhs := n.Args()[0]
	if lhs.Head() != "Mul" {
		t.Errorf("lhs head = %q", lhs.Head())
	}
	if !lhs.List[1].IsSymbol("?x") {
		t.Errorf("lhs var = %v", lhs.List[1])
	}
}

func TestParseComments(t *testing.T) {
	nodes, err := Parse("; leading comment\n(a b) ; trailing\n(c)\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("got %d nodes, want 2", len(nodes))
	}
	if nodes[0].Head() != "a" || nodes[1].Head() != "c" {
		t.Errorf("heads = %q, %q", nodes[0].Head(), nodes[1].Head())
	}
}

func TestParseNested(t *testing.T) {
	n := mustParseOne(t, "(a (b (c (d 1) 2.0) \"s\") ())")
	if len(n.List) != 3 {
		t.Fatalf("len = %d", len(n.List))
	}
	empty := n.List[2]
	if empty.Kind != KindList || len(empty.List) != 0 {
		t.Errorf("expected empty list, got %v", empty)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "(a", `"unterminated`, `"bad \q escape"`, "(a))", "a b"}
	for _, src := range bad {
		if _, err := ParseOne(src); err == nil {
			t.Errorf("ParseOne(%q): expected error", src)
		}
	}
}

func TestParsePositions(t *testing.T) {
	nodes, err := Parse("(a\n  b)")
	if err != nil {
		t.Fatal(err)
	}
	b := nodes[0].List[1]
	if b.Line != 2 || b.Col != 3 {
		t.Errorf("position of b = %d:%d, want 2:3", b.Line, b.Col)
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`(sort Expr)`,
		`(function Num (i64) Expr :cost 1)`,
		`(let expr (Div (Mul (Var "a") (Num 2)) (Num 2)))`,
		`(RankedTensor (vec-of 2 3) (I64))`,
		`(rule ((= ?k (log2 ?n)) (= ?n (<< 1 ?k))) ((union ?lhs ?rhs)))`,
		`(NamedAttr "value" (FloatAttr 0.5 (F32)))`,
	}
	for _, src := range srcs {
		n := mustParseOne(t, src)
		again := mustParseOne(t, n.String())
		if !n.Equal(again) {
			t.Errorf("round trip of %q gave %q", src, n.String())
		}
	}
}

func TestEqual(t *testing.T) {
	a := mustParseOne(t, "(f 1 2.0 \"x\")")
	b := mustParseOne(t, "(f 1 2.0 \"x\")")
	c := mustParseOne(t, "(f 1 2.0 \"y\")")
	if !a.Equal(b) {
		t.Error("identical expressions not Equal")
	}
	if a.Equal(c) {
		t.Error("distinct expressions Equal")
	}
	nan1 := Float(math.NaN())
	nan2 := Float(math.NaN())
	if !nan1.Equal(nan2) {
		t.Error("NaN should equal NaN bitwise")
	}
}

func TestClone(t *testing.T) {
	a := mustParseOne(t, "(f (g 1) 2)")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.List[1].List[1].Int = 99
	if a.Equal(b) {
		t.Error("mutating clone affected original")
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		f    float64
		want string
	}{
		{1, "1.0"},
		{2.5, "2.5"},
		{-0.25, "-0.25"},
		{1e21, "1e+21"},
	}
	for _, tt := range tests {
		if got := FormatFloat(tt.f); got != tt.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tt.f, got, tt.want)
		}
	}
	// Floats must re-parse as floats, never ints.
	for _, f := range []float64{0, 1, -3, 1e10, 0.5} {
		n := mustParseOne(t, FormatFloat(f))
		if n.Kind != KindFloat {
			t.Errorf("FormatFloat(%v) = %q re-parsed as %v", f, FormatFloat(f), n.Kind)
		}
	}
}

// Property: String output always re-parses to an Equal node, for randomly
// generated trees built from the quick-checkable seed.
func TestStringRoundTripProperty(t *testing.T) {
	build := func(ints []int8, depth int) *Node {
		if depth == 0 || len(ints) == 0 {
			return Int(int64(len(ints)))
		}
		n := List(Symbol("n"))
		for i, v := range ints {
			switch i % 4 {
			case 0:
				n.List = append(n.List, Int(int64(v)))
			case 1:
				n.List = append(n.List, Float(float64(v)/2))
			case 2:
				n.List = append(n.List, String(strings.Repeat("s", int(v&3))))
			case 3:
				n.List = append(n.List, List(Symbol("leaf"), Int(int64(v))))
			}
		}
		return n
	}
	f := func(ints []int8) bool {
		n := build(ints, 3)
		again, err := ParseOne(n.String())
		return err == nil && n.Equal(again)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkParse(b *testing.B) {
	src := strings.Repeat(`(rule ((= ?lhs (arith_divsi ?x (arith_constant (NamedAttr "value" (IntegerAttr ?n ?t)) ?t) ?t))) ((union ?lhs ?x)))`+"\n", 50)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
