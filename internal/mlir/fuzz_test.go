package mlir

import "testing"

// fuzzRegistry registers a minimal op so the fuzzer can reach deeper
// parser states without importing the dialects package (import cycle).
func fuzzRegistry() *Registry {
	r := NewRegistry()
	r.Register(&OpDef{
		Name: "t.ret",
		Parse: func(p *Parser, st *OpParseState) (*Operation, error) {
			return NewOperation("t.ret", nil, nil), nil
		},
	})
	return r
}

// FuzzParseModule: the MLIR parser must never panic, accepted modules
// must print and re-parse, and on every pair of types in an accepted
// module (operands, results and block arguments) structural TypeEqual must
// agree with comparing the printed forms.
func FuzzParseModule(f *testing.F) {
	seeds := []string{
		"func.func @f() { func.return }",
		`%r = "a.b"(%x) : (i64) -> i64`,
		"module { }",
		"func.func @g(%x: tensor<3x?xf64>) -> f32 { }",
		`"d.o"() ({ "d.i"() : () -> () }) {k = 1 : i64} : () -> ()`,
		"%0 = arith.constant dense<1.5> : tensor<2xf64>",
		"t.ret",
		`%0 = "d.a"() : () -> tensor<?x3xf32>
%1 = "d.b"(%0) : (tensor<?x3xf32>) -> tensor<3x?xf32>`,
		`%0 = "d.a"() : () -> tuple<i64, tensor<?x3xf32>, tuple<>>
%1 = "d.b"(%0) : (tuple<i64, tensor<?x3xf32>, tuple<>>) -> complex<f64>`,
		`"d.o"() ({
^bb0(%a: complex<f64>, %b: complex<f32>):
  %0 = "d.f"(%a, %b) : (complex<f64>, complex<f32>) -> ((i64, tensor<2xf64>) -> (f32, index))
}) : () -> ()`,
		`%0 = "d.a"() : () -> !dialect.type<tensor<3xf32>, 4>
%1 = "d.a"() : () -> !dialect.type<tensor<3xf32>, 5>
%2 = "d.b"(%0, %1) : (!dialect.type<tensor<3xf32>, 4>, !dialect.type<tensor<3xf32>, 5>) -> tensor<*x!dialect.type>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	reg := fuzzRegistry()
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseModule(src, reg)
		if err != nil {
			return
		}
		printed := PrintModule(m, reg)
		if _, err := ParseModule(printed, reg); err != nil {
			t.Fatalf("printed module does not re-parse: %v\ninput: %q\nprinted:\n%s", err, src, printed)
		}
		checkTypeEqualAgreesWithText(t, moduleTypes(m))
	})
}

// moduleTypes lists the types of every operand, result and block argument
// in m, in walk order.
func moduleTypes(m *Module) []Type {
	var types []Type
	m.Op.Walk(func(op *Operation) bool {
		for _, v := range op.Operands {
			types = append(types, v.Typ)
		}
		for _, v := range op.Results {
			types = append(types, v.Typ)
		}
		for _, r := range op.Regions {
			for _, b := range r.Blocks {
				for _, v := range b.Args {
					types = append(types, v.Typ)
				}
			}
		}
		return true
	})
	return types
}
