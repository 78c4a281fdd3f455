// Package interp executes MLIR modules on concrete data. It is the
// performance substrate of this reproduction: the paper compiles benchmarks
// to native binaries and measures wall time on an Apple M1; we interpret
// the IR and charge each executed operation a documented latency (see
// CostModel), so that the quantity the paper's optimizations improve — the
// dynamic instruction mix — is measured directly. Outputs are real
// computed values, so results can be verified as in §8.1.
package interp

import (
	"fmt"

	"dialegg/internal/mlir"
)

// Value is a runtime value.
type Value struct {
	kind   kind
	i      int64
	f      float64
	b      bool
	tensor *Tensor
}

type kind uint8

const (
	kindInvalid kind = iota
	kindInt          // integers and index values
	kindFloat
	kindBool
	kindTensor
)

// IntValue wraps an integer (or index).
func IntValue(v int64) Value { return Value{kind: kindInt, i: v} }

// FloatValue wraps a float.
func FloatValue(v float64) Value { return Value{kind: kindFloat, f: v} }

// BoolValue wraps a bool (i1).
func BoolValue(v bool) Value { return Value{kind: kindBool, b: v} }

// TensorValue wraps a tensor.
func TensorValue(t *Tensor) Value { return Value{kind: kindTensor, tensor: t} }

// Int returns the integer payload.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload.
func (v Value) Float() float64 { return v.f }

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.b }

// Tensor returns the tensor payload.
func (v Value) Tensor() *Tensor { return v.tensor }

// IsFloat reports whether the value holds a float.
func (v Value) IsFloat() bool { return v.kind == kindFloat }

// IsTensor reports whether the value holds a tensor.
func (v Value) IsTensor() bool { return v.kind == kindTensor }

func (v Value) String() string {
	switch v.kind {
	case kindInt:
		return fmt.Sprintf("%d", v.i)
	case kindFloat:
		return fmt.Sprintf("%g", v.f)
	case kindBool:
		return fmt.Sprintf("%t", v.b)
	case kindTensor:
		return v.tensor.String()
	default:
		return "<invalid>"
	}
}

// Tensor is a dense ranked tensor. Exactly one of F and I is non-nil,
// matching the element type.
type Tensor struct {
	Shape []int64
	// F holds float elements in row-major order.
	F []float64
	// I holds integer elements in row-major order.
	I []int64
	// frozen tensors (function arguments) are copied before mutation. The
	// interpreter otherwise updates tensors destructively, which is valid
	// for the linear (single-use) tensor chains in this repo's programs;
	// see DESIGN.md §3.
	frozen bool
}

// NewFloatTensor allocates a zero float tensor.
func NewFloatTensor(shape ...int64) *Tensor {
	return &Tensor{Shape: shape, F: make([]float64, numElems(shape))}
}

// NewIntTensor allocates a zero integer tensor.
func NewIntTensor(shape ...int64) *Tensor {
	return &Tensor{Shape: shape, I: make([]int64, numElems(shape))}
}

func numElems(shape []int64) int64 {
	n := int64(1)
	for _, d := range shape {
		n *= d
	}
	return n
}

// NumElements returns the element count.
func (t *Tensor) NumElements() int64 { return numElems(t.Shape) }

// Freeze marks the tensor immutable (copy-on-write).
func (t *Tensor) Freeze() { t.frozen = true }

// offset computes the row-major linear index.
func (t *Tensor) offset(idx []int64) (int64, error) {
	if len(idx) != len(t.Shape) {
		return 0, fmt.Errorf("interp: %d indices for rank-%d tensor", len(idx), len(t.Shape))
	}
	off := int64(0)
	for d, i := range idx {
		if i < 0 || i >= t.Shape[d] {
			return 0, fmt.Errorf("interp: index %d out of bounds [0,%d) in dim %d", i, t.Shape[d], d)
		}
		off = off*t.Shape[d] + i
	}
	return off, nil
}

// IsFloat reports whether the element type is floating point.
func (t *Tensor) IsFloat() bool { return t.F != nil }

// GetFloat reads a float element.
func (t *Tensor) GetFloat(idx ...int64) (float64, error) {
	off, err := t.offset(idx)
	if err != nil {
		return 0, err
	}
	return t.F[off], nil
}

// GetInt reads an integer element.
func (t *Tensor) GetInt(idx ...int64) (int64, error) {
	off, err := t.offset(idx)
	if err != nil {
		return 0, err
	}
	return t.I[off], nil
}

// clone copies the tensor (unfrozen).
func (t *Tensor) clone() *Tensor {
	c := &Tensor{Shape: append([]int64(nil), t.Shape...)}
	if t.F != nil {
		c.F = append([]float64(nil), t.F...)
	}
	if t.I != nil {
		c.I = append([]int64(nil), t.I...)
	}
	return c
}

// mutable returns t itself when in-place update is allowed, or a copy.
func (t *Tensor) mutable() *Tensor {
	if t.frozen {
		return t.clone()
	}
	return t
}

func (t *Tensor) String() string {
	return fmt.Sprintf("tensor%v(%d elems)", t.Shape, t.NumElements())
}

// Checksum folds every element into a single float for cheap output
// verification.
func (t *Tensor) Checksum() float64 {
	var s float64
	for _, f := range t.F {
		s += f
	}
	for _, i := range t.I {
		s += float64(i)
	}
	return s
}

// zeroValueFor builds the runtime zero of an MLIR type.
func zeroValueFor(t mlir.Type) (Value, error) {
	switch tt := t.(type) {
	case mlir.IntegerType, mlir.IndexType:
		return IntValue(0), nil
	case mlir.FloatType:
		return FloatValue(0), nil
	case mlir.RankedTensorType:
		if mlir.IsFloat(tt.Elem) {
			return TensorValue(NewFloatTensor(tt.Shape...)), nil
		}
		return TensorValue(NewIntTensor(tt.Shape...)), nil
	default:
		return Value{}, fmt.Errorf("interp: no zero value for type %s", t)
	}
}
