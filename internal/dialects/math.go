package dialects

import (
	"math"

	"dialegg/internal/mlir"
)

// registerMath registers the math dialect (elementary float functions).
func registerMath(r *mlir.Registry) {
	unary := []struct {
		name string
		eval func(float64) (float64, bool)
	}{
		{"math.sqrt", func(x float64) (float64, bool) {
			if x < 0 {
				return 0, false
			}
			return math.Sqrt(x), true
		}},
		{"math.rsqrt", func(x float64) (float64, bool) {
			if x <= 0 {
				return 0, false
			}
			return 1 / math.Sqrt(x), true
		}},
		{"math.absf", func(x float64) (float64, bool) { return math.Abs(x), true }},
		{"math.sin", func(x float64) (float64, bool) { return math.Sin(x), true }},
		{"math.cos", func(x float64) (float64, bool) { return math.Cos(x), true }},
		{"math.exp", func(x float64) (float64, bool) { return math.Exp(x), true }},
		{"math.log", func(x float64) (float64, bool) {
			if x <= 0 {
				return 0, false
			}
			return math.Log(x), true
		}},
		{"math.tanh", func(x float64) (float64, bool) { return math.Tanh(x), true }},
	}
	for _, o := range unary {
		o := o
		r.Register(&mlir.OpDef{
			Name:   o.name,
			Traits: mlir.Traits{Pure: true},
			Parse:  parseUnaryOp(o.name, true),
			Print: func(ps *mlir.PrintState, op *mlir.Operation) {
				ps.Write(" ")
				ps.PrintOperands(op.Operands)
				ps.PrintOptionalFastMath(op)
				ps.Write(" : ")
				ps.WriteType(op.Results[0].Typ)
			},
			Verify: func(op *mlir.Operation) error {
				if err := mlir.VerifyOperandCount(op, 1); err != nil {
					return err
				}
				return mlir.VerifySameOperandAndResultType(op)
			},
			Fold: func(op *mlir.Operation) (mlir.FoldResult, bool) {
				if c, ok := constFloat(op.Operands[0]); ok {
					if v, ok := o.eval(c); ok {
						return mlir.FoldResult{Attr: mlir.FloatAttr{Value: v, Type: op.Results[0].Typ}}, true
					}
				}
				return mlir.FoldResult{}, false
			},
		})
	}

	// math.powf %base, %exp : T
	r.Register(&mlir.OpDef{
		Name:   "math.powf",
		Traits: mlir.Traits{Pure: true},
		Parse:  parseBinaryOp("math.powf", true),
		Print:  printBinaryOp,
		Verify: func(op *mlir.Operation) error {
			if err := mlir.VerifyOperandCount(op, 2); err != nil {
				return err
			}
			return mlir.VerifySameOperandAndResultType(op)
		},
		Fold: func(op *mlir.Operation) (mlir.FoldResult, bool) {
			b, bok := constFloat(op.Operands[0])
			e, eok := constFloat(op.Operands[1])
			if bok && eok {
				return mlir.FoldResult{Attr: mlir.FloatAttr{Value: math.Pow(b, e), Type: op.Results[0].Typ}}, true
			}
			if eok && e == 1 {
				return mlir.FoldResult{Value: op.Operands[0]}, true
			}
			return mlir.FoldResult{}, false
		},
	})

	// math.fma %a, %b, %c : T
	r.Register(&mlir.OpDef{
		Name:   "math.fma",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			a, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(","); err != nil {
				return nil, err
			}
			b, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(","); err != nil {
				return nil, err
			}
			c, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			fm, err := p.ParseOptionalFastMath()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			t, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			op := mlir.NewOperation("math.fma", []*mlir.Value{a, b, c}, []mlir.Type{t})
			if fm != nil {
				op.SetAttr("fastmath", fm)
			}
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ")
			ps.PrintOperands(op.Operands)
			ps.PrintOptionalFastMath(op)
			ps.Write(" : ")
			ps.WriteType(op.Results[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			if err := mlir.VerifyOperandCount(op, 3); err != nil {
				return err
			}
			return mlir.VerifySameOperandAndResultType(op)
		},
	})
}
