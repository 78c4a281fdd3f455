// Package dialects defines the MLIR dialects used by the paper's
// benchmarks — func, arith, math, scf, tensor, and linalg — with their
// pretty-syntax parsers, printers, verifiers, and canonicalization folds.
package dialects

import (
	"sync"

	"dialegg/internal/mlir"
)

// NewRegistry returns the registry of every dialect in this package. It is
// built once per process and frozen: every call returns the same
// immutable registry, which is safe for concurrent use, and Register on
// it panics.
func NewRegistry() *mlir.Registry { return shared() }

var shared = sync.OnceValue(func() *mlir.Registry {
	r := mlir.NewRegistry()
	registerBuiltin(r)
	registerFunc(r)
	registerArith(r)
	registerMath(r)
	registerSCF(r)
	registerTensor(r)
	registerLinalg(r)
	r.Freeze()
	return r
})

// registerBuiltin registers the builtin dialect (the module container).
func registerBuiltin(r *mlir.Registry) {
	r.Register(&mlir.OpDef{
		Name: "builtin.module",
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ")
			ps.PrintRegion(op.Regions[0])
		},
	})
}

// --- shared parse/print helpers ---

// parseBinaryOp reads `%a, %b [fastmath<f>] : type` and builds an op whose
// operands and single result all have that type.
func parseBinaryOp(name string, allowFastMath bool) func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
	return func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
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
		var fm mlir.Attribute
		if allowFastMath {
			fm, err = p.ParseOptionalFastMath()
			if err != nil {
				return nil, err
			}
		}
		if err := p.Expect(":"); err != nil {
			return nil, err
		}
		t, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		op := mlir.NewOperation(name, []*mlir.Value{a, b}, []mlir.Type{t})
		if fm != nil {
			op.SetAttr("fastmath", fm)
		}
		return op, nil
	}
}

func printBinaryOp(ps *mlir.PrintState, op *mlir.Operation) {
	ps.Write(" ")
	ps.PrintOperands(op.Operands)
	ps.PrintOptionalFastMath(op)
	ps.Write(" : ")
	ps.WriteType(op.Results[0].Typ)
}

// parseUnaryOp reads `%a [fastmath<f>] : type`.
func parseUnaryOp(name string, allowFastMath bool) func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
	return func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
		a, err := p.ParseOperand()
		if err != nil {
			return nil, err
		}
		var fm mlir.Attribute
		if allowFastMath {
			fm, err = p.ParseOptionalFastMath()
			if err != nil {
				return nil, err
			}
		}
		if err := p.Expect(":"); err != nil {
			return nil, err
		}
		t, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		op := mlir.NewOperation(name, []*mlir.Value{a}, []mlir.Type{t})
		if fm != nil {
			op.SetAttr("fastmath", fm)
		}
		return op, nil
	}
}

// parseCastOp reads `%a : fromType to toType`.
func parseCastOp(name string) func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
	return func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
		a, err := p.ParseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.Expect(":"); err != nil {
			return nil, err
		}
		from, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		if !mlir.TypeEqual(a.Typ, from) {
			return nil, p.Errf("%s: operand has type %s, written %s", name, a.Typ, from)
		}
		if err := p.ParseKeyword("to"); err != nil {
			return nil, err
		}
		to, err := p.ParseType()
		if err != nil {
			return nil, err
		}
		return mlir.NewOperation(name, []*mlir.Value{a}, []mlir.Type{to}), nil
	}
}

func printCastOp(ps *mlir.PrintState, op *mlir.Operation) {
	ps.Write(" ")
	ps.PrintOperands(op.Operands)
	ps.Write(" : ")
	ps.WriteType(op.Operands[0].Typ)
	ps.Write(" to ")
	ps.WriteType(op.Results[0].Typ)
}
