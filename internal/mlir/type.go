// Package mlir implements the MLIR-like intermediate representation that
// DialEgg optimizes: a multi-dialect SSA IR with operations, typed values,
// attributes, blocks and regions, plus a textual parser and printer for the
// pretty syntax of the dialects used in the paper (builtin, func, arith,
// math, scf, tensor, linalg).
package mlir

import (
	"slices"
	"strconv"
	"strings"
)

// Type is an MLIR type. Types are immutable; TypeEqual compares them
// structurally and String returns the canonical MLIR syntax.
type Type interface {
	String() string
	isType()
}

// TypeEqual reports whether a and b are the same type. It compares
// structure — widths, shapes, and element, input, result and tuple types —
// without rendering either side. The parser makes an OpaqueType only of
// text it does not model (a '!' dialect type), so two types are equal
// exactly when their String forms are.
func TypeEqual(a, b Type) bool {
	switch a := a.(type) {
	case nil:
		return b == nil
	case IntegerType:
		if b, ok := b.(IntegerType); ok {
			return a.Width == b.Width
		}
	case FloatType:
		if b, ok := b.(FloatType); ok {
			return a.Width == b.Width
		}
	case IndexType:
		if _, ok := b.(IndexType); ok {
			return true
		}
	case NoneType:
		if _, ok := b.(NoneType); ok {
			return true
		}
	case RankedTensorType:
		if b, ok := b.(RankedTensorType); ok {
			return slices.Equal(a.Shape, b.Shape) && TypeEqual(a.Elem, b.Elem)
		}
	case UnrankedTensorType:
		if b, ok := b.(UnrankedTensorType); ok {
			return TypeEqual(a.Elem, b.Elem)
		}
	case FunctionType:
		if b, ok := b.(FunctionType); ok {
			return slices.EqualFunc(a.Inputs, b.Inputs, TypeEqual) &&
				slices.EqualFunc(a.Results, b.Results, TypeEqual)
		}
	case TupleType:
		if b, ok := b.(TupleType); ok {
			return slices.EqualFunc(a.Elems, b.Elems, TypeEqual)
		}
	case ComplexType:
		if b, ok := b.(ComplexType); ok {
			return TypeEqual(a.Elem, b.Elem)
		}
	case OpaqueType:
		if b, ok := b.(OpaqueType); ok {
			return a.Text == b.Text
		}
	default:
		panic("mlir: TypeEqual: unhandled type " + a.String())
	}
	return false
}

// typeString renders t through writeType.
func typeString(t Type) string {
	var b strings.Builder
	writeType(&b, t)
	return b.String()
}

// writeType appends t's MLIR syntax to b.
func writeType(b *strings.Builder, t Type) {
	switch t := t.(type) {
	case IntegerType:
		b.WriteByte('i')
		writeInt(b, int64(t.Width))
	case FloatType:
		b.WriteByte('f')
		writeInt(b, int64(t.Width))
	case RankedTensorType:
		b.WriteString("tensor<")
		for _, d := range t.Shape {
			if d == DynamicDim {
				b.WriteByte('?')
			} else {
				writeInt(b, d)
			}
			b.WriteByte('x')
		}
		writeType(b, t.Elem)
		b.WriteByte('>')
	case UnrankedTensorType:
		b.WriteString("tensor<*x")
		writeType(b, t.Elem)
		b.WriteByte('>')
	case FunctionType:
		b.WriteByte('(')
		writeTypes(b, t.Inputs)
		b.WriteString(") -> ")
		writeResultTypes(b, t.Results)
	case TupleType:
		b.WriteString("tuple<")
		writeTypes(b, t.Elems)
		b.WriteByte('>')
	case ComplexType:
		b.WriteString("complex<")
		writeType(b, t.Elem)
		b.WriteByte('>')
	default: // the leaf types whose String is a constant or a field
		b.WriteString(t.String())
	}
}

// writeTypes appends a comma-separated type list to b.
func writeTypes(b *strings.Builder, ts []Type) {
	for i, t := range ts {
		if i > 0 {
			b.WriteString(", ")
		}
		writeType(b, t)
	}
}

// writeResultTypes appends a result type list to b: one type bare, and
// zero or several types in parentheses. A lone function type is
// parenthesized too, or its arrow would end the list when it is parsed
// back.
func writeResultTypes(b *strings.Builder, ts []Type) {
	if len(ts) == 1 {
		if _, fn := ts[0].(FunctionType); !fn {
			writeType(b, ts[0])
			return
		}
	}
	b.WriteByte('(')
	writeTypes(b, ts)
	b.WriteByte(')')
}

// writeInt appends v in decimal to b.
func writeInt(b *strings.Builder, v int64) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], v, 10))
}

// IntegerType is the builtin iN type (signless, as in MLIR).
type IntegerType struct {
	// Width in bits (1, 8, 16, 32, 64).
	Width int
}

func (t IntegerType) isType()        {}
func (t IntegerType) String() string { return typeString(t) }

// Common integer types.
var (
	I1  = IntegerType{Width: 1}
	I8  = IntegerType{Width: 8}
	I16 = IntegerType{Width: 16}
	I32 = IntegerType{Width: 32}
	I64 = IntegerType{Width: 64}
)

// FloatType is the builtin fN type.
type FloatType struct {
	// Width in bits (16, 32, 64).
	Width int
}

func (t FloatType) isType()        {}
func (t FloatType) String() string { return typeString(t) }

// Common float types.
var (
	F16 = FloatType{Width: 16}
	F32 = FloatType{Width: 32}
	F64 = FloatType{Width: 64}
)

// IndexType is the builtin index type used for loop bounds and tensor
// indexing.
type IndexType struct{}

func (IndexType) isType()        {}
func (IndexType) String() string { return "index" }

// Index is the canonical index type value.
var Index = IndexType{}

// NoneType is the builtin none type.
type NoneType struct{}

func (NoneType) isType()        {}
func (NoneType) String() string { return "none" }

// DynamicDim marks a dynamic dimension in a tensor shape (printed as '?').
const DynamicDim = int64(-1)

// RankedTensorType is tensor<d0xd1x...xElem>.
type RankedTensorType struct {
	Shape []int64
	Elem  Type
}

func (t RankedTensorType) isType() {}

func (t RankedTensorType) String() string { return typeString(t) }

// Rank returns the number of dimensions.
func (t RankedTensorType) Rank() int { return len(t.Shape) }

// NumElements returns the total element count, or -1 if any dimension is
// dynamic.
func (t RankedTensorType) NumElements() int64 {
	n := int64(1)
	for _, d := range t.Shape {
		if d == DynamicDim {
			return -1
		}
		n *= d
	}
	return n
}

// TensorOf builds a ranked tensor type.
func TensorOf(elem Type, shape ...int64) RankedTensorType {
	return RankedTensorType{Shape: shape, Elem: elem}
}

// UnrankedTensorType is tensor<*xElem>.
type UnrankedTensorType struct {
	Elem Type
}

func (t UnrankedTensorType) isType()        {}
func (t UnrankedTensorType) String() string { return typeString(t) }

// FunctionType is (ins) -> (outs).
type FunctionType struct {
	Inputs  []Type
	Results []Type
}

func (t FunctionType) isType() {}

func (t FunctionType) String() string { return typeString(t) }

// TupleType is tuple<a, b, ...>.
type TupleType struct {
	Elems []Type
}

func (t TupleType) isType() {}

func (t TupleType) String() string { return typeString(t) }

// ComplexType is complex<Elem>.
type ComplexType struct {
	Elem Type
}

func (t ComplexType) isType()        {}
func (t ComplexType) String() string { return typeString(t) }

// OpaqueType carries the textual form of a type this IR does not model
// structurally; it round-trips through parsing and printing unchanged.
type OpaqueType struct {
	// Text is the full type syntax, e.g. "!mydialect.mytype<3>".
	Text string
}

func (t OpaqueType) isType()        {}
func (t OpaqueType) String() string { return t.Text }

// IsIntOrIndex reports whether t is an integer or index type.
func IsIntOrIndex(t Type) bool {
	switch t.(type) {
	case IntegerType, IndexType:
		return true
	}
	return false
}

// IsFloat reports whether t is a float type.
func IsFloat(t Type) bool {
	_, ok := t.(FloatType)
	return ok
}

// IsShaped reports whether t has a shape (currently: ranked tensors).
func IsShaped(t Type) bool {
	_, ok := t.(RankedTensorType)
	return ok
}

// ElemTypeOf returns the element type of a shaped type, or t itself.
func ElemTypeOf(t Type) Type {
	switch s := t.(type) {
	case RankedTensorType:
		return s.Elem
	case UnrankedTensorType:
		return s.Elem
	}
	return t
}
