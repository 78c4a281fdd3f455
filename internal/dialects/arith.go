package dialects

import (
	"fmt"
	"math"

	"dialegg/internal/mlir"
)

// constInt returns the integer constant an operand is defined by, if any.
func constInt(v *mlir.Value) (int64, bool) {
	if v.Def == nil || v.Def.Name != "arith.constant" {
		return 0, false
	}
	a, ok := v.Def.GetAttr("value")
	if !ok {
		return 0, false
	}
	ia, ok := a.(mlir.IntegerAttr)
	if !ok {
		return 0, false
	}
	return ia.Value, true
}

// constFloat returns the float constant an operand is defined by, if any.
func constFloat(v *mlir.Value) (float64, bool) {
	if v.Def == nil || v.Def.Name != "arith.constant" {
		return 0, false
	}
	a, ok := v.Def.GetAttr("value")
	if !ok {
		return 0, false
	}
	fa, ok := a.(mlir.FloatAttr)
	if !ok {
		return 0, false
	}
	return fa.Value, true
}

// intBinaryFold builds a fold for an integer binary op: constant folding
// plus left/right identity and annihilator elements.
type intBinaryFold struct {
	eval func(a, b int64) (int64, bool)
	// rightIdentity: x op c == x (e.g. x+0, x*1, x<<0).
	rightIdentity func(c int64) bool
	// leftIdentity: c op x == x.
	leftIdentity func(c int64) bool
	// annihilator: x op c == c (e.g. x*0).
	annihilator func(c int64) bool
}

func (f intBinaryFold) fold(op *mlir.Operation) (mlir.FoldResult, bool) {
	a, aok := constInt(op.Operands[0])
	b, bok := constInt(op.Operands[1])
	if aok && bok && f.eval != nil {
		if v, ok := f.eval(a, b); ok {
			return mlir.FoldResult{Attr: mlir.IntegerAttr{Value: v, Type: op.Results[0].Typ}}, true
		}
	}
	if bok {
		if f.rightIdentity != nil && f.rightIdentity(b) {
			return mlir.FoldResult{Value: op.Operands[0]}, true
		}
		if f.annihilator != nil && f.annihilator(b) {
			return mlir.FoldResult{Attr: mlir.IntegerAttr{Value: b, Type: op.Results[0].Typ}}, true
		}
	}
	if aok {
		if f.leftIdentity != nil && f.leftIdentity(a) {
			return mlir.FoldResult{Value: op.Operands[1]}, true
		}
		if f.annihilator != nil && f.annihilator(a) {
			return mlir.FoldResult{Attr: mlir.IntegerAttr{Value: a, Type: op.Results[0].Typ}}, true
		}
	}
	return mlir.FoldResult{}, false
}

// floatBinaryFold mirrors intBinaryFold for float ops. Identity folds are
// restricted to cases that are exact in IEEE arithmetic.
type floatBinaryFold struct {
	eval          func(a, b float64) (float64, bool)
	rightIdentity func(c float64) bool
	leftIdentity  func(c float64) bool
}

func (f floatBinaryFold) fold(op *mlir.Operation) (mlir.FoldResult, bool) {
	a, aok := constFloat(op.Operands[0])
	b, bok := constFloat(op.Operands[1])
	if aok && bok && f.eval != nil {
		if v, ok := f.eval(a, b); ok {
			return mlir.FoldResult{Attr: mlir.FloatAttr{Value: v, Type: op.Results[0].Typ}}, true
		}
	}
	if bok && f.rightIdentity != nil && f.rightIdentity(b) {
		return mlir.FoldResult{Value: op.Operands[0]}, true
	}
	if aok && f.leftIdentity != nil && f.leftIdentity(a) {
		return mlir.FoldResult{Value: op.Operands[1]}, true
	}
	return mlir.FoldResult{}, false
}

// registerArith registers the arith dialect.
func registerArith(r *mlir.Registry) {
	pureBin := mlir.Traits{Pure: true}
	commBin := mlir.Traits{Pure: true, Commutative: true}

	intOps := []struct {
		name   string
		traits mlir.Traits
		fold   intBinaryFold
	}{
		{"arith.addi", commBin, intBinaryFold{
			eval:          func(a, b int64) (int64, bool) { return a + b, true },
			rightIdentity: func(c int64) bool { return c == 0 },
			leftIdentity:  func(c int64) bool { return c == 0 },
		}},
		{"arith.subi", pureBin, intBinaryFold{
			eval:          func(a, b int64) (int64, bool) { return a - b, true },
			rightIdentity: func(c int64) bool { return c == 0 },
		}},
		{"arith.muli", commBin, intBinaryFold{
			eval:          func(a, b int64) (int64, bool) { return a * b, true },
			rightIdentity: func(c int64) bool { return c == 1 },
			leftIdentity:  func(c int64) bool { return c == 1 },
			annihilator:   func(c int64) bool { return c == 0 },
		}},
		{"arith.divsi", pureBin, intBinaryFold{
			eval: func(a, b int64) (int64, bool) {
				if b == 0 {
					return 0, false
				}
				if a == math.MinInt64 && b == -1 {
					return math.MinInt64, true // AArch64 wraparound
				}
				return a / b, true
			},
			rightIdentity: func(c int64) bool { return c == 1 },
		}},
		{"arith.remsi", pureBin, intBinaryFold{
			eval: func(a, b int64) (int64, bool) {
				if b == 0 {
					return 0, false
				}
				if a == math.MinInt64 && b == -1 {
					return 0, true // AArch64 wraparound
				}
				return a % b, true
			},
		}},
		{"arith.shli", pureBin, intBinaryFold{
			eval: func(a, b int64) (int64, bool) {
				if b < 0 || b >= 64 {
					return 0, false
				}
				return a << uint(b), true
			},
			rightIdentity: func(c int64) bool { return c == 0 },
		}},
		{"arith.shrsi", pureBin, intBinaryFold{
			eval: func(a, b int64) (int64, bool) {
				if b < 0 || b >= 64 {
					return 0, false
				}
				return a >> uint(b), true
			},
			rightIdentity: func(c int64) bool { return c == 0 },
		}},
		{"arith.andi", commBin, intBinaryFold{
			eval: func(a, b int64) (int64, bool) { return a & b, true },
		}},
		{"arith.ori", commBin, intBinaryFold{
			eval:          func(a, b int64) (int64, bool) { return a | b, true },
			rightIdentity: func(c int64) bool { return c == 0 },
			leftIdentity:  func(c int64) bool { return c == 0 },
		}},
		{"arith.xori", commBin, intBinaryFold{
			eval:          func(a, b int64) (int64, bool) { return a ^ b, true },
			rightIdentity: func(c int64) bool { return c == 0 },
			leftIdentity:  func(c int64) bool { return c == 0 },
		}},
		{"arith.maxsi", commBin, intBinaryFold{
			eval: func(a, b int64) (int64, bool) { return max(a, b), true },
		}},
		{"arith.minsi", commBin, intBinaryFold{
			eval: func(a, b int64) (int64, bool) { return min(a, b), true },
		}},
	}
	for _, o := range intOps {
		fold := o.fold
		r.Register(&mlir.OpDef{
			Name:   o.name,
			Traits: o.traits,
			Parse:  parseBinaryOp(o.name, false),
			Print:  printBinaryOp,
			Verify: func(op *mlir.Operation) error {
				if err := mlir.VerifyOperandCount(op, 2); err != nil {
					return err
				}
				if err := mlir.VerifySameOperandAndResultType(op); err != nil {
					return err
				}
				if !mlir.IsIntOrIndex(mlir.ElemTypeOf(op.Results[0].Typ)) {
					return fmt.Errorf("expected integer-like type, have %s", op.Results[0].Typ)
				}
				return nil
			},
			Fold: fold.fold,
		})
	}

	floatOps := []struct {
		name   string
		traits mlir.Traits
		fold   floatBinaryFold
	}{
		{"arith.addf", commBin, floatBinaryFold{
			eval: func(a, b float64) (float64, bool) { return a + b, true },
			// x + (-0.0) == x exactly; x + 0.0 is not an identity for -0.0
			// inputs, but MLIR folds it anyway under default semantics.
			rightIdentity: func(c float64) bool { return c == 0 },
			leftIdentity:  func(c float64) bool { return c == 0 },
		}},
		{"arith.subf", pureBin, floatBinaryFold{
			eval:          func(a, b float64) (float64, bool) { return a - b, true },
			rightIdentity: func(c float64) bool { return c == 0 },
		}},
		{"arith.mulf", commBin, floatBinaryFold{
			eval:          func(a, b float64) (float64, bool) { return a * b, true },
			rightIdentity: func(c float64) bool { return c == 1 },
			leftIdentity:  func(c float64) bool { return c == 1 },
		}},
		{"arith.divf", pureBin, floatBinaryFold{
			eval: func(a, b float64) (float64, bool) {
				if b == 0 {
					return 0, false
				}
				return a / b, true
			},
			rightIdentity: func(c float64) bool { return c == 1 },
		}},
		{"arith.maximumf", commBin, floatBinaryFold{
			eval: func(a, b float64) (float64, bool) { return math.Max(a, b), true },
		}},
		{"arith.minimumf", commBin, floatBinaryFold{
			eval: func(a, b float64) (float64, bool) { return math.Min(a, b), true },
		}},
	}
	for _, o := range floatOps {
		fold := o.fold
		r.Register(&mlir.OpDef{
			Name:   o.name,
			Traits: o.traits,
			Parse:  parseBinaryOp(o.name, true),
			Print:  printBinaryOp,
			Verify: func(op *mlir.Operation) error {
				if err := mlir.VerifyOperandCount(op, 2); err != nil {
					return err
				}
				if err := mlir.VerifySameOperandAndResultType(op); err != nil {
					return err
				}
				if !mlir.IsFloat(mlir.ElemTypeOf(op.Results[0].Typ)) {
					return fmt.Errorf("expected float-like type, have %s", op.Results[0].Typ)
				}
				return nil
			},
			Fold: fold.fold,
		})
	}

	r.Register(&mlir.OpDef{
		Name:   "arith.negf",
		Traits: mlir.Traits{Pure: true},
		Parse:  parseUnaryOp("arith.negf", true),
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
			if f, ok := constFloat(op.Operands[0]); ok {
				return mlir.FoldResult{Attr: mlir.FloatAttr{Value: -f, Type: op.Results[0].Typ}}, true
			}
			// --x => x
			if d := op.Operands[0].Def; d != nil && d.Name == "arith.negf" {
				return mlir.FoldResult{Value: d.Operands[0]}, true
			}
			return mlir.FoldResult{}, false
		},
	})

	r.Register(&mlir.OpDef{
		Name:   "arith.constant",
		Traits: mlir.Traits{Pure: true, ConstantLike: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			a, err := p.ParseAttribute()
			if err != nil {
				return nil, err
			}
			var resType mlir.Type
			switch attr := a.(type) {
			case mlir.IntegerAttr:
				resType = attr.Type
				if p.Accept(":") {
					t, err := p.ParseType()
					if err != nil {
						return nil, err
					}
					if mlir.IsFloat(t) {
						a = mlir.FloatAttr{Value: float64(attr.Value), Type: t}
					} else {
						a = mlir.IntegerAttr{Value: attr.Value, Type: t}
					}
					resType = t
				}
			case mlir.FloatAttr:
				resType = attr.Type
				if p.Accept(":") {
					t, err := p.ParseType()
					if err != nil {
						return nil, err
					}
					a = mlir.FloatAttr{Value: attr.Value, Type: t}
					resType = t
				}
			case mlir.DenseAttr:
				resType = attr.Type
			default:
				return nil, p.Errf("arith.constant: unsupported constant attribute %s", a)
			}
			op := mlir.NewOperation("arith.constant", nil, []mlir.Type{resType})
			op.SetAttr("value", a)
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			if a, ok := op.GetAttr("value"); ok {
				ps.Write(" ")
				ps.Write(a.String())
			}
		},
		Verify: func(op *mlir.Operation) error {
			if _, ok := op.GetAttr("value"); !ok {
				return fmt.Errorf("missing value attribute")
			}
			return mlir.VerifyOperandCount(op, 0)
		},
	})

	// arith.cmpi / arith.cmpf: predicate keyword, two operands, i1 result.
	r.Register(&mlir.OpDef{
		Name:   "arith.cmpi",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			predWord, err := p.ParseWord()
			if err != nil {
				return nil, err
			}
			pred, err := mlir.ParseCmpIPredicate(predWord)
			if err != nil {
				return nil, p.Errf("%v", err)
			}
			if err := p.Expect(","); err != nil {
				return nil, err
			}
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
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			if _, err := p.ParseType(); err != nil {
				return nil, err
			}
			op := mlir.NewOperation("arith.cmpi", []*mlir.Value{a, b}, []mlir.Type{mlir.I1})
			op.SetAttr("predicate", mlir.IntegerAttr{Value: int64(pred), Type: mlir.I64})
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			pa, _ := op.GetAttr("predicate")
			pred := mlir.CmpIPredicate(pa.(mlir.IntegerAttr).Value)
			ps.Write(" ")
			ps.Write(pred.String())
			ps.Write(", ")
			ps.PrintOperands(op.Operands)
			ps.Write(" : ")
			ps.WriteType(op.Operands[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			if err := mlir.VerifyOperandCount(op, 2); err != nil {
				return err
			}
			if _, ok := op.GetAttr("predicate"); !ok {
				return fmt.Errorf("missing predicate")
			}
			return nil
		},
	})
	r.Register(&mlir.OpDef{
		Name:   "arith.cmpf",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			predWord, err := p.ParseWord()
			if err != nil {
				return nil, err
			}
			pred, err := mlir.ParseCmpFPredicate(predWord)
			if err != nil {
				return nil, p.Errf("%v", err)
			}
			if err := p.Expect(","); err != nil {
				return nil, err
			}
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
			fm, err := p.ParseOptionalFastMath()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			if _, err := p.ParseType(); err != nil {
				return nil, err
			}
			op := mlir.NewOperation("arith.cmpf", []*mlir.Value{a, b}, []mlir.Type{mlir.I1})
			op.SetAttr("predicate", mlir.IntegerAttr{Value: int64(pred), Type: mlir.I64})
			if fm != nil {
				op.SetAttr("fastmath", fm)
			}
			return op, nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			pa, _ := op.GetAttr("predicate")
			pred := mlir.CmpFPredicate(pa.(mlir.IntegerAttr).Value)
			ps.Write(" ")
			ps.Write(pred.String())
			ps.Write(", ")
			ps.PrintOperands(op.Operands)
			ps.PrintOptionalFastMath(op)
			ps.Write(" : ")
			ps.WriteType(op.Operands[0].Typ)
		},
		Verify: func(op *mlir.Operation) error {
			if err := mlir.VerifyOperandCount(op, 2); err != nil {
				return err
			}
			if _, ok := op.GetAttr("predicate"); !ok {
				return fmt.Errorf("missing predicate")
			}
			return nil
		},
	})

	// arith.select %cond, %a, %b : T
	r.Register(&mlir.OpDef{
		Name:   "arith.select",
		Traits: mlir.Traits{Pure: true},
		Parse: func(p *mlir.Parser, st *mlir.OpParseState) (*mlir.Operation, error) {
			c, err := p.ParseOperand()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(","); err != nil {
				return nil, err
			}
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
			if err := p.Expect(":"); err != nil {
				return nil, err
			}
			t, err := p.ParseType()
			if err != nil {
				return nil, err
			}
			return mlir.NewOperation("arith.select", []*mlir.Value{c, a, b}, []mlir.Type{t}), nil
		},
		Print: func(ps *mlir.PrintState, op *mlir.Operation) {
			ps.Write(" ")
			ps.PrintOperands(op.Operands)
			ps.Write(" : ")
			ps.WriteType(op.Results[0].Typ)
		},
		Verify: func(op *mlir.Operation) error { return mlir.VerifyOperandCount(op, 3) },
		Fold: func(op *mlir.Operation) (mlir.FoldResult, bool) {
			if c, ok := constInt(op.Operands[0]); ok {
				if c != 0 {
					return mlir.FoldResult{Value: op.Operands[1]}, true
				}
				return mlir.FoldResult{Value: op.Operands[2]}, true
			}
			return mlir.FoldResult{}, false
		},
	})

	// Casts.
	casts := []string{"arith.sitofp", "arith.fptosi", "arith.index_cast", "arith.extsi", "arith.extui", "arith.trunci", "arith.truncf", "arith.extf"}
	for _, name := range casts {
		name := name
		r.Register(&mlir.OpDef{
			Name:   name,
			Traits: mlir.Traits{Pure: true},
			Parse:  parseCastOp(name),
			Print:  printCastOp,
			Verify: func(op *mlir.Operation) error { return mlir.VerifyOperandCount(op, 1) },
			Fold: func(op *mlir.Operation) (mlir.FoldResult, bool) {
				switch name {
				case "arith.sitofp":
					if c, ok := constInt(op.Operands[0]); ok {
						return mlir.FoldResult{Attr: mlir.FloatAttr{Value: float64(c), Type: op.Results[0].Typ}}, true
					}
				case "arith.index_cast", "arith.extsi", "arith.extui", "arith.trunci":
					if c, ok := constInt(op.Operands[0]); ok {
						return mlir.FoldResult{Attr: mlir.IntegerAttr{Value: c, Type: op.Results[0].Typ}}, true
					}
				}
				return mlir.FoldResult{}, false
			},
		})
	}
}
