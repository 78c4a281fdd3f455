package dialects

import (
	"fmt"

	"dialegg/internal/mlir"
)

// registerSCF registers the scf (structured control flow) dialect: scf.for,
// scf.if, scf.yield.
func registerSCF(r *mlir.Registry) {
	r.Register(&mlir.OpDef{
		Name: "scf.for",
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			ivName, err := p.ParsePercentName()
			if err != nil {
				return nil, err
			}
			if err := p.Expect("="); err != nil {
				return nil, err
			}
			lb, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.ParseKeyword("to"); err != nil {
				return nil, err
			}
			ub, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.ParseKeyword("step"); err != nil {
				return nil, err
			}
			step, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			operands := []*mlir.Value{lb, ub, step}
			args := []mlir.BlockArgSpec{{Name: ivName, Type: mlir.Index}}
			var resultTypes []mlir.Type
			if p.AcceptKeyword("iter_args") {
				if err := p.Expect("("); err != nil {
					return nil, err
				}
				var iterNames []string
				for {
					n, err := p.ParsePercentName()
					if err != nil {
						return nil, err
					}
					if err := p.Expect("="); err != nil {
						return nil, err
					}
					init, err := p.ParseOperand()
					if err != nil {
						return nil, err
					}
					operands = append(operands, init)
					iterNames = append(iterNames, n)
					if !p.Accept(",") {
						break
					}
				}
				if err := p.Expect(")"); err != nil {
					return nil, err
				}
				if err := p.Expect("->"); err != nil {
					return nil, err
				}
				resultTypes, err = p.ParseResultTypes()
				if err != nil {
					return nil, err
				}
				if len(resultTypes) != len(iterNames) {
					return nil, p.Errf("scf.for: %d iter_args but %d result types", len(iterNames), len(resultTypes))
				}
				for i, n := range iterNames {
					args = append(args, mlir.BlockArgSpec{Name: n, Type: resultTypes[i]})
				}
			}
			op := mlir.NewOperation("scf.for", operands, resultTypes)
			region := op.AddRegion()
			if err := p.ParseRegionInto(region, args); err != nil {
				return nil, err
			}
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			entry := op.Regions[0].First()
			ps.Write(" ")
			ps.WriteValueName(entry.Args[0])
			ps.Write(" = ")
			ps.WriteValueName(op.Operands[0])
			ps.Write(" to ")
			ps.WriteValueName(op.Operands[1])
			ps.Write(" step ")
			ps.WriteValueName(op.Operands[2])
			if len(op.Results) > 0 {
				ps.Write(" iter_args(")
				for i := range op.Results {
					if i > 0 {
						ps.Write(", ")
					}
					ps.WriteValueName(entry.Args[i+1])
					ps.Write(" = ")
					ps.WriteValueName(op.Operands[i+3])
				}
				ps.Write(") -> (")
				ps.PrintValueTypes(op.Results)
				ps.Write(")")
			}
			ps.Write(" ")
			ps.PrintRegion(op.Regions[0])
		},
		Verify: func(op *mlir.Operation) error {
			if len(op.Operands) < 3 {
				return fmt.Errorf("expected at least lb, ub, step")
			}
			if len(op.Operands)-3 != len(op.Results) {
				return fmt.Errorf("iter_args count %d does not match results %d", len(op.Operands)-3, len(op.Results))
			}
			if len(op.Regions) != 1 || op.Regions[0].First() == nil {
				return fmt.Errorf("expected one region with an entry block")
			}
			entry := op.Regions[0].First()
			if len(entry.Args) != 1+len(op.Results) {
				return fmt.Errorf("body has %d args, want %d", len(entry.Args), 1+len(op.Results))
			}
			if term := entry.Terminator(); term == nil || term.Name != "scf.yield" {
				return fmt.Errorf("body must end with scf.yield")
			} else if len(term.Operands) != len(op.Results) {
				return fmt.Errorf("scf.yield yields %d values, loop produces %d", len(term.Operands), len(op.Results))
			}
			return nil
		},
	})

	r.Register(&mlir.OpDef{
		Name: "scf.if",
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			cond, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			var resultTypes []mlir.Type
			if p.Accept("->") {
				resultTypes, err = p.ParseResultTypes()
				if err != nil {
					return nil, err
				}
			}
			op := mlir.NewOperation("scf.if", []*mlir.Value{cond}, resultTypes)
			thenRegion := op.AddRegion()
			if err := p.ParseRegionInto(thenRegion, nil); err != nil {
				return nil, err
			}
			if p.AcceptKeyword("else") {
				elseRegion := op.AddRegion()
				if err := p.ParseRegionInto(elseRegion, nil); err != nil {
					return nil, err
				}
			}
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ")
			ps.WriteValueName(op.Operands[0])
			if len(op.Results) > 0 {
				ps.Write(" -> (")
				ps.PrintValueTypes(op.Results)
				ps.Write(")")
			}
			ps.Write(" ")
			ps.PrintRegion(op.Regions[0])
			if len(op.Regions) > 1 {
				ps.Write(" else ")
				ps.PrintRegion(op.Regions[1])
			}
		},
		Verify: func(op *mlir.Operation) error {
			if err := mlir.VerifyOperandCount(op, 1); err != nil {
				return err
			}
			if !mlir.TypeEqual(op.Operands[0].Typ, mlir.I1) {
				return fmt.Errorf("condition must be i1, have %s", op.Operands[0].Typ)
			}
			if len(op.Regions) == 0 || len(op.Regions) > 2 {
				return fmt.Errorf("expected 1 or 2 regions, have %d", len(op.Regions))
			}
			if len(op.Results) > 0 && len(op.Regions) != 2 {
				return fmt.Errorf("scf.if with results requires an else branch")
			}
			for _, reg := range op.Regions {
				b := reg.First()
				if b == nil {
					return fmt.Errorf("empty region")
				}
				if len(op.Results) > 0 {
					term := b.Terminator()
					if term == nil || term.Name != "scf.yield" || len(term.Operands) != len(op.Results) {
						return fmt.Errorf("branches must yield %d values", len(op.Results))
					}
				}
			}
			return nil
		},
	})

	// scf.while (%a = %init, ...) : (ins) -> (outs) { before } do { after }
	// The before region ends with scf.condition; the after region's entry
	// block declares its arguments with a ^bb0(...) header and ends with
	// scf.yield.
	r.Register(&mlir.OpDef{
		Name: "scf.while",
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			if err := p.Expect("("); err != nil {
				return nil, err
			}
			var argNames []string
			var inits []*mlir.Value
			for {
				n, err := p.ParsePercentName()
				if err != nil {
					return nil, err
				}
				if err := p.Expect("="); err != nil {
					return nil, err
				}
				init, err := p.ParseOperand()
				if err != nil {
					return nil, err
				}
				argNames = append(argNames, n)
				inits = append(inits, init)
				if !p.Accept(",") {
					break
				}
			}
			if err := p.Expect(")"); err != nil {
				return nil, err
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
				return nil, p.Errf("scf.while expects a function type, got %s", ft)
			}
			if len(fnType.Inputs) != len(inits) {
				return nil, p.Errf("scf.while has %d inits, type wants %d", len(inits), len(fnType.Inputs))
			}
			op := mlir.NewOperation("scf.while", inits, fnType.Results)
			var beforeArgs []mlir.BlockArgSpec
			for i, n := range argNames {
				beforeArgs = append(beforeArgs, mlir.BlockArgSpec{Name: n, Type: fnType.Inputs[i]})
			}
			if err := p.ParseRegionInto(op.AddRegion(), beforeArgs); err != nil {
				return nil, err
			}
			if err := p.ParseKeyword("do"); err != nil {
				return nil, err
			}
			// The after region declares its own args via a ^bb0 header.
			if err := p.ParseRegionInto(op.AddRegion(), nil); err != nil {
				return nil, err
			}
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			before := op.Regions[0].First()
			ps.Write(" (")
			for i, a := range before.Args {
				if i > 0 {
					ps.Write(", ")
				}
				ps.WriteValueName(a)
				ps.Write(" = ")
				ps.WriteValueName(op.Operands[i])
			}
			ps.Write(") : (")
			ps.PrintValueTypes(op.Operands)
			ps.Write(") -> ")
			ps.PrintResultTypes(op)
			ps.Write(" ")
			ps.PrintRegion(op.Regions[0])
			ps.Write(" do ")
			ps.PrintRegionWithBlockHeader(op.Regions[1])
		},
		Verify: func(op *mlir.Operation) error {
			if len(op.Regions) != 2 {
				return fmt.Errorf("expected before and after regions")
			}
			before, after := op.Regions[0].First(), op.Regions[1].First()
			if before == nil || after == nil {
				return fmt.Errorf("empty region")
			}
			cond := before.Terminator()
			if cond == nil || cond.Name != "scf.condition" {
				return fmt.Errorf("before region must end with scf.condition")
			}
			if len(cond.Operands)-1 != len(op.Results) {
				return fmt.Errorf("scf.condition forwards %d values, while produces %d", len(cond.Operands)-1, len(op.Results))
			}
			y := after.Terminator()
			if y == nil || y.Name != "scf.yield" {
				return fmt.Errorf("after region must end with scf.yield")
			}
			if len(y.Operands) != len(op.Operands) {
				return fmt.Errorf("after region yields %d values, while takes %d inits", len(y.Operands), len(op.Operands))
			}
			return nil
		},
	})

	// scf.condition(%cond) %forwarded... : types
	r.Register(&mlir.OpDef{
		Name:   "scf.condition",
		Traits: mlir.Traits{Terminator: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			if err := p.Expect("("); err != nil {
				return nil, err
			}
			cond, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(")"); err != nil {
				return nil, err
			}
			operands := []*mlir.Value{cond}
			if p.PeekByteIsPercent() {
				fwd, err := p.ParseOperandList()
				if err != nil {
					return nil, err
				}
				if err := p.Expect(":"); err != nil {
					return nil, err
				}
				for i := range fwd {
					t, err := p.ParseType()
					if err != nil {
						return nil, err
					}
					if !mlir.TypeEqual(fwd[i].Typ, t) {
						return nil, p.Errf("condition operand %d has type %s, written %s", i, fwd[i].Typ, t)
					}
					if i < len(fwd)-1 {
						if err := p.Expect(","); err != nil {
							return nil, err
						}
					}
				}
				operands = append(operands, fwd...)
			}
			return mlir.NewOperation("scf.condition", operands, nil), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write("(")
			ps.WriteValueName(op.Operands[0])
			ps.Write(")")
			if len(op.Operands) > 1 {
				ps.Write(" ")
				ps.PrintOperands(op.Operands[1:])
				ps.Write(" : ")
				ps.PrintValueTypes(op.Operands[1:])
			}
		},
		Verify: func(op *mlir.Operation) error {
			if len(op.Operands) < 1 || !mlir.TypeEqual(op.Operands[0].Typ, mlir.I1) {
				return fmt.Errorf("first operand must be an i1 condition")
			}
			return nil
		},
	})

	r.Register(&mlir.OpDef{
		Name:   "scf.yield",
		Traits: mlir.Traits{Terminator: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			op := mlir.NewOperation("scf.yield", nil, nil)
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
						return nil, p.Errf("yield operand %d has type %s, written %s", i, operands[i].Typ, t)
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
}
