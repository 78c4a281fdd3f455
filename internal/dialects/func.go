package dialects

import (
	"fmt"

	"dialegg/internal/mlir"
)

// registerFunc registers the func dialect: func.func, func.return,
// func.call.
func registerFunc(r *mlir.Registry) {
	r.Register(&mlir.OpDef{
		Name: "func.func",
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			sym, err := p.ParseSymbolName()
			if err != nil {
				return nil, err
			}
			if err := p.Expect("("); err != nil {
				return nil, err
			}
			var argSpecs []mlir.BlockArgSpec
			var inTypes []mlir.Type
			if !p.Accept(")") {
				for {
					name, err := p.ParsePercentName()
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
					argSpecs = append(argSpecs, mlir.BlockArgSpec{Name: name, Type: t})
					inTypes = append(inTypes, t)
					if !p.Accept(",") {
						break
					}
				}
				if err := p.Expect(")"); err != nil {
					return nil, err
				}
			}
			var outTypes []mlir.Type
			if p.Accept("->") {
				outTypes, err = p.ParseResultTypes()
				if err != nil {
					return nil, err
				}
			}
			var attrs []mlir.NamedAttribute
			if p.AcceptKeyword("attributes") {
				attrs, err = p.ParseOptionalAttrDict()
				if err != nil {
					return nil, err
				}
			}
			op := mlir.NewOperation("func.func", nil, nil)
			op.Attrs = attrs
			op.SetAttr("sym_name", mlir.StringAttr{Value: sym})
			op.SetAttr("function_type", mlir.TypeAttr{Type: mlir.FunctionType{Inputs: inTypes, Results: outTypes}})
			region := op.AddRegion()
			if err := p.ParseRegionInto(region, argSpecs); err != nil {
				return nil, err
			}
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ft, _ := mlir.FuncType(op)
			ps.Write(" @")
			ps.Write(mlir.FuncName(op))
			ps.Write("(")
			entry := op.Regions[0].First()
			for i, arg := range entry.Args {
				if i > 0 {
					ps.Write(", ")
				}
				ps.WriteValueName(arg)
				ps.Write(": ")
				ps.WriteType(arg.Typ)
			}
			ps.Write(")")
			if len(ft.Results) > 0 {
				ps.Write(" -> ")
				ps.WriteResultTypes(ft.Results)
			}
			extra := 0
			for _, na := range op.Attrs {
				if na.Name != "sym_name" && na.Name != "function_type" {
					extra++
				}
			}
			if extra > 0 {
				ps.Write(" attributes")
				ps.PrintAttrDict(op.Attrs, "sym_name", "function_type")
			}
			ps.Write(" ")
			ps.PrintRegion(op.Regions[0])
		},
		Verify: func(op *mlir.Operation) error {
			if _, ok := op.GetAttr("sym_name"); !ok {
				return fmt.Errorf("missing sym_name")
			}
			ft, ok := mlir.FuncType(op)
			if !ok {
				return fmt.Errorf("missing function_type")
			}
			if len(op.Regions) != 1 || len(op.Regions[0].Blocks) == 0 {
				return fmt.Errorf("expected one region with an entry block")
			}
			entry := op.Regions[0].First()
			if len(entry.Args) != len(ft.Inputs) {
				return fmt.Errorf("entry block has %d args, function type has %d inputs", len(entry.Args), len(ft.Inputs))
			}
			for i, a := range entry.Args {
				if !mlir.TypeEqual(a.Typ, ft.Inputs[i]) {
					return fmt.Errorf("entry arg %d has type %s, signature says %s", i, a.Typ, ft.Inputs[i])
				}
			}
			return nil
		},
	})

	r.Register(&mlir.OpDef{
		Name:   "func.return",
		Traits: mlir.Traits{Terminator: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			op := mlir.NewOperation("func.return", nil, nil)
			// Operands are optional: `func.return` or `func.return %a, %b : t, t`.
			if p.PeekByteIsPercent() {
				operands, err := p.ParseOperandList()
				if err != nil {
					return nil, err
				}
				if err := p.Expect(":"); err != nil {
					return nil, err
				}
				for i := range operands {
					t, err := p.ParseType()
					if err != nil {
						return nil, err
					}
					if !mlir.TypeEqual(operands[i].Typ, t) {
						return nil, p.Errf("return operand %d has type %s, written %s", i, operands[i].Typ, t)
					}
					if i < len(operands)-1 {
						if err := p.Expect(","); err != nil {
							return nil, err
						}
					}
				}
				op.Operands = operands
			}
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			if len(op.Operands) > 0 {
				ps.Write(" ")
				ps.PrintOperands(op.Operands)
				ps.Write(" : ")
				ps.PrintValueTypes(op.Operands)
			}
		},
	})

	r.Register(&mlir.OpDef{
		Name: "func.call",
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			callee, err := p.ParseSymbolName()
			if err != nil {
				return nil, err
			}
			if err := p.Expect("("); err != nil {
				return nil, err
			}
			var operands []*mlir.Value
			if !p.Accept(")") {
				operands, err = p.ParseOperandList()
				if err != nil {
					return nil, err
				}
				if err := p.Expect(")"); err != nil {
					return nil, err
				}
			}
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			ft, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			fnType, ok := ft.(mlir.FunctionType)
			if !ok {
				return nil, p.Errf("func.call expects a function type, got %s", ft)
			}
			if len(fnType.Inputs) != len(operands) {
				return nil, p.Errf("func.call has %d operands, type wants %d", len(operands), len(fnType.Inputs))
			}
			op := mlir.NewOperation("func.call", operands, fnType.Results)
			op.SetAttr("callee", mlir.SymbolRefAttr{Symbol: callee})
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			callee, _ := op.GetAttr("callee")
			ps.Write(" ")
			ps.Write(callee.String())
			ps.Write("(")
			ps.PrintOperands(op.Operands)
			ps.Write(") : (")
			ps.PrintValueTypes(op.Operands)
			ps.Write(") -> ")
			ps.PrintResultTypes(op)
		},
		Verify: func(op *mlir.Operation) error {
			if _, ok := op.GetAttr("callee"); !ok {
				return fmt.Errorf("missing callee")
			}
			return nil
		},
	})
}
