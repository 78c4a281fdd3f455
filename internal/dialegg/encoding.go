// Package dialegg implements the paper's contribution: the dialect-agnostic
// bridge between MLIR and Egglog. It contains the preparation phase that
// scans egglog declarations for MLIR operation encodings (§5.1), the
// MLIR-to-Egglog translator (§5.3) including opaque-operation handling
// (§4.3), the saturation driver, and the Egglog-to-MLIR back-translation
// that rebuilds SSA form from the extracted e-nodes.
package dialegg

import (
	"strings"

	"dialegg/internal/mlir"
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
