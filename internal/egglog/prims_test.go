package egglog

import (
	"testing"

	"dialegg/internal/egraph"
	"dialegg/internal/sexp"
)

// evalPrim evaluates a primitive expression through EvalExpr, the
// top-level path.
func evalPrim(t *testing.T, src string) (egraph.Value, error) {
	t.Helper()
	p := NewProgram()
	return p.EvalExpr(mustParseFactsOne(t, src))
}

// mustParseFactsOne parses exactly one s-expression.
func mustParseFactsOne(t *testing.T, src string) *sexp.Node {
	t.Helper()
	n, err := sexp.ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestI64Primitives(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"(+ 2 3)", 5},
		{"(- 2 3)", -1},
		{"(* 6 7)", 42},
		{"(/ 17 5)", 3},
		{"(% 17 5)", 2},
		{"(<< 1 10)", 1024},
		{"(>> -64 3)", -8},
		{"(& 12 10)", 8},
		{"(| 12 10)", 14},
		{"(^ 12 10)", 6},
		{"(min 3 -4)", -4},
		{"(max 3 -4)", 3},
		{"(abs -9)", 9},
		{"(- 5)", -5},
		{"(log2 4096)", 12},
		{"(log2 5)", 2}, // floor log2
		{"(+ (+ 1 2) (* 3 4))", 15},
	}
	for _, c := range cases {
		v, err := evalPrim(t, c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if v.AsI64() != c.want {
			t.Errorf("%s = %d, want %d", c.src, v.AsI64(), c.want)
		}
	}
}

func TestF64Primitives2(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"(+ 1.5 2.25)", 3.75},
		{"(- 1.5 0.25)", 1.25},
		{"(* 1.5 2.0)", 3},
		{"(/ 3.0 2.0)", 1.5},
		{"(min 1.5 -2.0)", -2},
		{"(max 1.5 -2.0)", 1.5},
		{"(abs -2.5)", 2.5},
		{"(sqrt 16.0)", 4},
		{"(pow 2.0 10.0)", 1024},
		{"(- 2.5)", -2.5},
		{"(to-f64 7)", 7},
	}
	for _, c := range cases {
		v, err := evalPrim(t, c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if v.AsF64() != c.want {
			t.Errorf("%s = %g, want %g", c.src, v.AsF64(), c.want)
		}
	}
}

func TestBoolPrimitives(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"(< 1 2)", true},
		{"(> 1 2)", false},
		{"(<= 2 2)", true},
		{"(>= 2 3)", false},
		{"(!= 2 3)", true},
		{"(< 1.5 2.5)", true},
		{"(and true false)", false},
		{"(or true false)", true},
		{"(xor true true)", false},
		{"(not false)", true},
	}
	for _, c := range cases {
		v, err := evalPrim(t, c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if v.AsBool() != c.want {
			t.Errorf("%s = %t, want %t", c.src, v.AsBool(), c.want)
		}
	}
}

func TestPrimitiveFailures(t *testing.T) {
	bad := []string{
		"(/ 1 0)",
		"(% 1 0)",
		"(<< 1 64)",
		"(<< 1 -1)",
		"(log2 0)",
		"(log2 -8)",
		"(sqrt -1.0)",
		"(/ 1.0 0.0)",
		"(to-i64 2.5)",   // non-integral
		"(+ 1 2.0)",      // mixed overload
		"(frobnicate 1)", // unknown
	}
	for _, src := range bad {
		if _, err := evalPrim(t, src); err == nil {
			t.Errorf("%s: expected failure", src)
		}
	}
}

func TestStringAndConversionPrims(t *testing.T) {
	p := NewProgram()
	v, err := p.EvalExpr(mustParseFactsOne(t, `(+ "foo" "bar")`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph().StringOf(v) != "foobar" {
		t.Errorf("concat = %q", p.Graph().StringOf(v))
	}
	v, err = p.EvalExpr(mustParseFactsOne(t, `(to-string 42)`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph().StringOf(v) != "42" {
		t.Errorf("to-string = %q", p.Graph().StringOf(v))
	}
	v, err = p.EvalExpr(mustParseFactsOne(t, `(to-i64 8.0)`))
	if err != nil {
		t.Fatal(err)
	}
	if v.AsI64() != 8 {
		t.Errorf("to-i64 = %d", v.AsI64())
	}
}

func TestVecPrimitives(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `(sort IntVec (Vec i64))`)
	v, err := p.EvalExpr(mustParseFactsOne(t, `(vec-get (vec-of 10 20 30) 1)`))
	if err != nil {
		t.Fatal(err)
	}
	if v.AsI64() != 20 {
		t.Errorf("vec-get = %d", v.AsI64())
	}
	v, err = p.EvalExpr(mustParseFactsOne(t, `(vec-length (vec-of 10 20 30))`))
	if err != nil {
		t.Fatal(err)
	}
	if v.AsI64() != 3 {
		t.Errorf("vec-length = %d", v.AsI64())
	}
	if _, err := p.EvalExpr(mustParseFactsOne(t, `(vec-get (vec-of 10) 5)`)); err == nil {
		t.Error("vec-get out of bounds should fail")
	}
	if _, err := p.EvalExpr(mustParseFactsOne(t, `(vec-of 1 2.0)`)); err == nil {
		t.Error("mixed-sort vec should fail")
	}
}
