// Package dialegg implements the paper's contribution: the dialect-agnostic
// bridge between MLIR and Egglog. It contains the preparation phase that
// scans egglog declarations for MLIR operation encodings (§5.1), the
// MLIR-to-Egglog translator (§5.3) including opaque-operation handling
// (§4.3), the saturation driver, and the Egglog-to-MLIR back-translation
// that rebuilds SSA form from the extracted e-nodes.
package dialegg

import (
	"fmt"
	"strings"

	"dialegg/internal/mlir"
	"dialegg/internal/sexp"
)

// EggOpName converts an MLIR operation name to its egglog function name:
// "arith.addi" -> "arith_addi". Only the dialect separator dot is
// rewritten; op names with further dots are unsupported by the encoding
// and become opaque.
func EggOpName(mlirName string) string {
	return strings.ReplaceAll(mlirName, ".", "_")
}

// MLIROpName converts an egglog function base name back to the MLIR name:
// "arith_addi" -> "arith.addi". Only the first underscore separates the
// dialect, matching the paper's convention ("the name of each variant
// starts with the dialect name followed by the operation name");
// underscores inside the op name (index_cast) are preserved.
func MLIROpName(eggName string) string {
	i := strings.IndexByte(eggName, '_')
	if i < 0 {
		return eggName
	}
	return eggName[:i] + "." + eggName[i+1:]
}

// TypeToTerm renders an MLIR type as its egglog term (§4.1). Types without
// a structural encoding become (OpaqueType serialized name).
func TypeToTerm(t mlir.Type) *sexp.Node {
	var s sink
	return s.typ(t).n
}

func typeName(t mlir.Type) string {
	switch t.(type) {
	case mlir.FunctionType:
		return "builtin.function"
	case mlir.TupleType:
		return "builtin.tuple"
	case mlir.ComplexType:
		return "builtin.complex"
	case mlir.IntegerType:
		return "builtin.integer"
	case mlir.OpaqueType:
		return "opaque"
	default:
		return "unknown"
	}
}

// TermToType parses an egglog type term back to an MLIR type.
func TermToType(n *sexp.Node) (mlir.Type, error) {
	head := n.Head()
	switch head {
	case "I1":
		return mlir.I1, nil
	case "I8":
		return mlir.I8, nil
	case "I16":
		return mlir.I16, nil
	case "I32":
		return mlir.I32, nil
	case "I64":
		return mlir.I64, nil
	case "F16":
		return mlir.F16, nil
	case "F32":
		return mlir.F32, nil
	case "F64":
		return mlir.F64, nil
	case "Index":
		return mlir.Index, nil
	case "None":
		return mlir.NoneType{}, nil
	case "RankedTensor":
		if len(n.Args()) != 2 {
			return nil, fmt.Errorf("dialegg: RankedTensor expects 2 args: %s", n)
		}
		dims := n.Args()[0]
		if dims.Head() != "vec-of" {
			return nil, fmt.Errorf("dialegg: RankedTensor shape must be vec-of: %s", n)
		}
		var shape []int64
		for _, d := range dims.Args() {
			if d.Kind != sexp.KindInt {
				return nil, fmt.Errorf("dialegg: non-integer dimension in %s", n)
			}
			shape = append(shape, d.Int)
		}
		elem, err := TermToType(n.Args()[1])
		if err != nil {
			return nil, err
		}
		return mlir.RankedTensorType{Shape: shape, Elem: elem}, nil
	case "UnrankedTensor":
		elem, err := TermToType(n.Args()[0])
		if err != nil {
			return nil, err
		}
		return mlir.UnrankedTensorType{Elem: elem}, nil
	case "OpaqueType":
		// The text is the type's MLIR syntax; parsing it gives the type
		// the parser gave the original (i4 and complex<f32> are modelled).
		if len(n.Args()) != 2 || n.Args()[0].Kind != sexp.KindString {
			return nil, fmt.Errorf("dialegg: malformed OpaqueType %s", n)
		}
		t, err := mlir.ParseType(n.Args()[0].Str)
		if err != nil {
			return nil, fmt.Errorf("dialegg: OpaqueType %q: %w", n.Args()[0].Str, err)
		}
		return t, nil
	default:
		return nil, fmt.Errorf("dialegg: unknown type term %s", n)
	}
}

// AttrToTerm renders an MLIR attribute as its egglog term (§4.2).
func AttrToTerm(a mlir.Attribute) *sexp.Node {
	var s sink
	return s.attr(a).n
}

// TermToAttr parses an egglog attribute term.
func TermToAttr(n *sexp.Node) (mlir.Attribute, error) {
	switch n.Head() {
	case "IntegerAttr":
		if len(n.Args()) != 2 || n.Args()[0].Kind != sexp.KindInt {
			return nil, fmt.Errorf("dialegg: malformed IntegerAttr %s", n)
		}
		t, err := TermToType(n.Args()[1])
		if err != nil {
			return nil, err
		}
		return mlir.IntegerAttr{Value: n.Args()[0].Int, Type: t}, nil
	case "FloatAttr":
		if len(n.Args()) != 2 {
			return nil, fmt.Errorf("dialegg: malformed FloatAttr %s", n)
		}
		v := n.Args()[0]
		var f float64
		switch v.Kind {
		case sexp.KindFloat:
			f = v.Float
		case sexp.KindInt:
			f = float64(v.Int)
		default:
			return nil, fmt.Errorf("dialegg: malformed FloatAttr value %s", n)
		}
		t, err := TermToType(n.Args()[1])
		if err != nil {
			return nil, err
		}
		return mlir.FloatAttr{Value: f, Type: t}, nil
	case "StringAttr":
		return mlir.StringAttr{Value: n.Args()[0].Str}, nil
	case "SymbolAttr":
		return mlir.SymbolRefAttr{Symbol: n.Args()[0].Str}, nil
	case "UnitAttr":
		return mlir.UnitAttr{}, nil
	case "TypeAttr":
		t, err := TermToType(n.Args()[0])
		if err != nil {
			return nil, err
		}
		return mlir.TypeAttr{Type: t}, nil
	case "arith_fastmath":
		if len(n.Args()) != 1 {
			return nil, fmt.Errorf("dialegg: malformed arith_fastmath %s", n)
		}
		flagName := n.Args()[0].Head()
		for flag, k := range fastMathFlags {
			if builtinNames[k] == flagName {
				return mlir.FastMathAttr{Flag: mlir.FastMathFlag(flag)}, nil
			}
		}
		return nil, fmt.Errorf("dialegg: unknown fastmath flag %s", n)
	case "DenseAttr":
		splat, err := TermToAttr(n.Args()[0])
		if err != nil {
			return nil, err
		}
		t, err := TermToType(n.Args()[1])
		if err != nil {
			return nil, err
		}
		return mlir.DenseAttr{Splat: splat, Type: t}, nil
	case "OpaqueAttr":
		return mlir.OpaqueAttr{Text: n.Args()[0].Str}, nil
	default:
		return nil, fmt.Errorf("dialegg: unknown attribute term %s", n)
	}
}
