package dialects

import (
	"fmt"

	"dialegg/internal/mlir"
)

// registerTensor registers the tensor dialect: tensor.empty,
// tensor.extract, tensor.insert, tensor.dim, tensor.splat.
func registerTensor(r *mlir.Registry) {
	r.Register(&mlir.OpDef{
		Name:   "tensor.empty",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			if err := p.Expect("("); err != nil {
				return nil, err
			}
			if err := p.Expect(")"); err != nil {
				return nil, err
			}
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			t, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			return mlir.NewOperation("tensor.empty", nil, []mlir.Type{t}), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write("() : ")
			ps.WriteType(op.Results[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			if !mlir.IsShaped(op.Results[0].Typ) {
				return fmt.Errorf("result must be a ranked tensor, have %s", op.Results[0].Typ)
			}
			return nil
		},
	})

	r.Register(&mlir.OpDef{
		Name:   "tensor.extract",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			t, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.Expect("["); err != nil {
				return nil, err
			}
			idx, err := p.ParseOperandList()
			if err != nil {
				return nil, err
			}
			if err := p.Expect("]"); err != nil {
				return nil, err
			}
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			tt, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			rt, ok := tt.(mlir.RankedTensorType)
			if !ok {
				return nil, p.Errf("tensor.extract expects a ranked tensor type")
			}
			operands := append([]*mlir.Value{t}, idx...)
			return mlir.NewOperation("tensor.extract", operands, []mlir.Type{rt.Elem}), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ")
			ps.WriteValueName(op.Operands[0])
			ps.Write("[")
			ps.PrintOperands(op.Operands[1:])
			ps.Write("] : ")
			ps.WriteType(op.Operands[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			rt, ok := op.Operands[0].Typ.(mlir.RankedTensorType)
			if !ok {
				return fmt.Errorf("operand 0 must be a ranked tensor")
			}
			if len(op.Operands)-1 != rt.Rank() {
				return fmt.Errorf("have %d indices, tensor rank is %d", len(op.Operands)-1, rt.Rank())
			}
			if !mlir.TypeEqual(op.Results[0].Typ, rt.Elem) {
				return fmt.Errorf("result type %s does not match element type %s", op.Results[0].Typ, rt.Elem)
			}
			return nil
		},
	})

	r.Register(&mlir.OpDef{
		Name:   "tensor.insert",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			v, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.ParseKeyword("into"); err != nil {
				return nil, err
			}
			t, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.Expect("["); err != nil {
				return nil, err
			}
			idx, err := p.ParseOperandList()
			if err != nil {
				return nil, err
			}
			if err := p.Expect("]"); err != nil {
				return nil, err
			}
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			tt, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			operands := append([]*mlir.Value{v, t}, idx...)
			return mlir.NewOperation("tensor.insert", operands, []mlir.Type{tt}), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ")
			ps.WriteValueName(op.Operands[0])
			ps.Write(" into ")
			ps.WriteValueName(op.Operands[1])
			ps.Write("[")
			ps.PrintOperands(op.Operands[2:])
			ps.Write("] : ")
			ps.WriteType(op.Results[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			rt, ok := op.Operands[1].Typ.(mlir.RankedTensorType)
			if !ok {
				return fmt.Errorf("destination must be a ranked tensor")
			}
			if len(op.Operands)-2 != rt.Rank() {
				return fmt.Errorf("have %d indices, tensor rank is %d", len(op.Operands)-2, rt.Rank())
			}
			if !mlir.TypeEqual(op.Operands[0].Typ, rt.Elem) {
				return fmt.Errorf("inserted value type %s does not match element type %s", op.Operands[0].Typ, rt.Elem)
			}
			return nil
		},
	})

	r.Register(&mlir.OpDef{
		Name:   "tensor.dim",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			t, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(","); err != nil {
				return nil, err
			}
			d, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			if _, err := p.ParseType(); err != nil {
				return nil, err
			}
			return mlir.NewOperation("tensor.dim", []*mlir.Value{t, d}, []mlir.Type{mlir.Index}), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ")
			ps.PrintOperands(op.Operands)
			ps.Write(" : ")
			ps.WriteType(op.Operands[0].Typ)
		},
		Fold: func(op *mlir.Operation) (mlir.FoldResult, bool) {
			rt, ok := op.Operands[0].Typ.(mlir.RankedTensorType)
			if !ok {
				return mlir.FoldResult{}, false
			}
			d, ok := constInt(op.Operands[1])
			if !ok || d < 0 || int(d) >= rt.Rank() || rt.Shape[d] == mlir.DynamicDim {
				return mlir.FoldResult{}, false
			}
			return mlir.FoldResult{Attr: mlir.IntegerAttr{Value: rt.Shape[d], Type: mlir.Index}}, true
		},
	})

	r.Register(&mlir.OpDef{
		Name:   "tensor.splat",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			v, err := p.ParseOperand()
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
			return mlir.NewOperation("tensor.splat", []*mlir.Value{v}, []mlir.Type{t}), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ")
			ps.PrintOperands(op.Operands)
			ps.Write(" : ")
			ps.WriteType(op.Results[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			rt, ok := op.Results[0].Typ.(mlir.RankedTensorType)
			if !ok {
				return fmt.Errorf("result must be a ranked tensor")
			}
			if !mlir.TypeEqual(op.Operands[0].Typ, rt.Elem) {
				return fmt.Errorf("splat value type %s does not match element type %s", op.Operands[0].Typ, rt.Elem)
			}
			return nil
		},
	})
}
