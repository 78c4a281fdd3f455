package dialects

import (
	"fmt"

	"dialegg/internal/mlir"
)

// registerLinalg registers the linalg dialect subset used by the paper:
// linalg.matmul and linalg.fill in their ins/outs pretty form.
func registerLinalg(r *mlir.Registry) {
	// %r = linalg.matmul ins(%a, %b : tA, tB) outs(%c : tC) -> tC
	r.Register(&mlir.OpDef{
		Name:   "linalg.matmul",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			ins, err := parseInsOuts(p, "ins", 2)
			if err != nil {
				return nil, err
			}
			outs, err := parseInsOuts(p, "outs", 1)
			if err != nil {
				return nil, err
			}
			if err := p.Expect("->"); err != nil {
				return nil, err
			}
			t, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			operands := append(ins, outs...)
			return mlir.NewOperation("linalg.matmul", operands, []mlir.Type{t}), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ins(")
			ps.PrintOperands(op.Operands[:2])
			ps.Write(" : ")
			ps.WriteType(op.Operands[0].Typ)
			ps.Write(", ")
			ps.WriteType(op.Operands[1].Typ)
			ps.Write(") outs(")
			ps.PrintOperands(op.Operands[2:3])
			ps.Write(" : ")
			ps.WriteType(op.Operands[2].Typ)
			ps.Write(") -> ")
			ps.WriteType(op.Results[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			if err := mlir.VerifyOperandCount(op, 3); err != nil {
				return err
			}
			a, aok := op.Operands[0].Typ.(mlir.RankedTensorType)
			b, bok := op.Operands[1].Typ.(mlir.RankedTensorType)
			c, cok := op.Operands[2].Typ.(mlir.RankedTensorType)
			if !aok || !bok || !cok {
				return fmt.Errorf("operands must be ranked tensors")
			}
			if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
				return fmt.Errorf("matmul needs rank-2 tensors")
			}
			if a.Shape[1] != b.Shape[0] {
				return fmt.Errorf("dimension mismatch: %s x %s", a, b)
			}
			if c.Shape[0] != a.Shape[0] || c.Shape[1] != b.Shape[1] {
				return fmt.Errorf("output shape %s does not match %dx%d", c, a.Shape[0], b.Shape[1])
			}
			if !mlir.TypeEqual(op.Results[0].Typ, op.Operands[2].Typ) {
				return fmt.Errorf("result type %s must match output operand type %s", op.Results[0].Typ, op.Operands[2].Typ)
			}
			return nil
		},
	})

	// %r = linalg.fill ins(%v : f64) outs(%t : tT) -> tT
	r.Register(&mlir.OpDef{
		Name:   "linalg.fill",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			ins, err := parseInsOuts(p, "ins", 1)
			if err != nil {
				return nil, err
			}
			outs, err := parseInsOuts(p, "outs", 1)
			if err != nil {
				return nil, err
			}
			if err := p.Expect("->"); err != nil {
				return nil, err
			}
			t, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			return mlir.NewOperation("linalg.fill", append(ins, outs...), []mlir.Type{t}), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ins(")
			ps.PrintOperands(op.Operands[:1])
			ps.Write(" : ")
			ps.WriteType(op.Operands[0].Typ)
			ps.Write(") outs(")
			ps.PrintOperands(op.Operands[1:2])
			ps.Write(" : ")
			ps.WriteType(op.Operands[1].Typ)
			ps.Write(") -> ")
			ps.WriteType(op.Results[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			return mlir.VerifyOperandCount(op, 2)
		},
	})
}

// parseInsOuts reads `kw(%a, %b : t, t)` and returns the operands after
// checking the written types.
func parseInsOuts(p *mlir.Parser, kw string, n int) ([]*mlir.Value, error) {
	if err := p.ParseKeyword(kw); err != nil {
		return nil, err
	}
	if err := p.Expect("("); err != nil {
		return nil, err
	}
	vals, err := p.ParseOperandList()
	if err != nil {
		return nil, err
	}
	if len(vals) != n {
		return nil, p.Errf("%s(...) expects %d operands, got %d", kw, n, len(vals))
	}
	if err := p.Expect(":"); err != nil {
		return nil, err
	}
	for i := range vals {
		t, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		if !mlir.TypeEqual(vals[i].Typ, t) {
			return nil, p.Errf("%s operand %d has type %s, written %s", kw, i, vals[i].Typ, t)
		}
		if i < len(vals)-1 {
			if err := p.Expect(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.Expect(")"); err != nil {
		return nil, err
	}
	return vals, nil
}
