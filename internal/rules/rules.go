// Package rules embeds the egglog rule files used by the paper's case
// studies and benchmarks. Each file contains the operation declarations,
// cost models, and rewrite rules for one use case; benchmark drivers
// concatenate the files they need (declarations must not repeat across
// concatenated files).
package rules

import (
	_ "embed"
	"fmt"
)

// ArithCore declares the integer arith-dialect operations with
// latency-calibrated costs.
//
//go:embed arith_core.egg
var ArithCore string

// ArithFloat declares the float arith-dialect operations (each with a
// fastmath attribute slot).
//
//go:embed arith_float.egg
var ArithFloat string

// ConstantFold is the §7.1 constant-folding case study.
//
//go:embed constant_fold.egg
var ConstantFold string

// DivPow2 is the §7.2 conditional rewrite: division by a power of two
// becomes a right shift.
//
//go:embed div_pow2.egg
var DivPow2 string

// DivPow2Sound is the semantics-preserving variant of DivPow2: it applies
// the LLVM-style bias correction so the rewrite is also correct for
// negative dividends. The paper's rule as written (DivPow2) floors instead
// of truncating on negatives — a discrepancy this repository's
// differential fuzzer surfaced (see EXPERIMENTS.md).
//
//go:embed div_pow2_sound.egg
var DivPow2Sound string

// FastInvSqrt is the §7.3 attribute-based rewrite: fastmath 1/sqrt(x)
// becomes a call to @fast_inv_sqrt.
//
//go:embed fast_inv_sqrt.egg
var FastInvSqrt string

// Matmul is the §7.4 type-based cost model and matmul associativity.
//
//go:embed matmul.egg
var Matmul string

// Horner is the §7.5 rule set from which Horner's method emerges.
//
//go:embed horner.egg
var Horner string

// ImgConv is the rule set for the image-conversion benchmark (integer
// ops + div-by-pow2).
func ImgConv() []string { return []string{ArithCore, DivPow2} }

// VecNorm is the rule set for the vector-normalization benchmark (float
// ops + fast inverse sqrt).
func VecNorm() []string { return []string{ArithCore, ArithFloat, FastInvSqrt} }

// Poly is the rule set for the polynomial benchmark (float ops + Horner).
func Poly() []string { return []string{ArithCore, ArithFloat, Horner} }

// MatmulChain is the rule set for the 2MM/3MM/NMM benchmarks.
func MatmulChain() []string { return []string{ArithCore, Matmul} }

// Bundle resolves a bundled rule-set name, as egg-opt's and egg-serve's
// -rules flags and egg-serve's rule_set request field take it: "" is no
// rules, and imgconv, vecnorm, poly and matmul are the benchmark sets
// above. Any other name is an error that lists the accepted names.
func Bundle(name string) ([]string, error) {
	switch name {
	case "":
		return nil, nil
	case "imgconv":
		return ImgConv(), nil
	case "vecnorm":
		return VecNorm(), nil
	case "poly":
		return Poly(), nil
	case "matmul":
		return MatmulChain(), nil
	}
	return nil, fmt.Errorf("unknown rule set %q (want imgconv, vecnorm, poly, or matmul)", name)
}
