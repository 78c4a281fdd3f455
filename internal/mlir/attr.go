package mlir

import (
	"fmt"
	"strconv"
	"strings"
)

// Attribute is a compile-time constant property attached to an operation.
type Attribute interface {
	fmt.Stringer
	isAttr()
}

// NamedAttribute pairs an attribute with its name on the operation.
type NamedAttribute struct {
	Name string
	Attr Attribute
}

// IntegerAttr is a typed integer constant, printed as `value : type`.
type IntegerAttr struct {
	Value int64
	Type  Type
}

func (IntegerAttr) isAttr() {}

func (a IntegerAttr) String() string {
	if TypeEqual(a.Type, I1) {
		if a.Value != 0 {
			return "true"
		}
		return "false"
	}
	var b strings.Builder
	writeInt(&b, a.Value)
	b.WriteString(" : ")
	writeType(&b, a.Type)
	return b.String()
}

// FloatAttr is a typed floating-point constant.
type FloatAttr struct {
	Value float64
	Type  Type
}

func (FloatAttr) isAttr() {}

func (a FloatAttr) String() string {
	return formatMLIRFloat(a.Value) + " : " + a.Type.String()
}

// formatMLIRFloat prints a float with a decimal point or exponent, matching
// MLIR's convention that float literals are never bare integers.
func formatMLIRFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	// MLIR prints exponents as e+NN; Go's 'g' may produce e+05 etc. Both
	// re-parse fine here.
	return s
}

// StringAttr is a quoted string.
type StringAttr struct {
	Value string
}

func (StringAttr) isAttr()          {}
func (a StringAttr) String() string { return quoteAttrString(a.Value) }

// quoteAttrString quotes using only the escapes the MLIR parser accepts
// (\" \\ \n \t); other bytes pass through raw so values round-trip.
func quoteAttrString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// TypeAttr wraps a type as an attribute (e.g. function_type).
type TypeAttr struct {
	Type Type
}

func (TypeAttr) isAttr()          {}
func (a TypeAttr) String() string { return a.Type.String() }

// SymbolRefAttr references a symbol, printed as @name.
type SymbolRefAttr struct {
	Symbol string
}

func (SymbolRefAttr) isAttr()          {}
func (a SymbolRefAttr) String() string { return "@" + a.Symbol }

// UnitAttr is a presence-only attribute.
type UnitAttr struct{}

func (UnitAttr) isAttr()        {}
func (UnitAttr) String() string { return "unit" }

// ArrayAttr is a list of attributes.
type ArrayAttr struct {
	Elems []Attribute
}

func (ArrayAttr) isAttr() {}

func (a ArrayAttr) String() string {
	var b strings.Builder
	b.WriteString("[")
	for i, e := range a.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteString("]")
	return b.String()
}

// DenseAttr is a splat dense-elements constant: every element of the shaped
// type has the same scalar value. Printed as dense<v> : type. (Full
// per-element dense storage is not needed by the paper's benchmarks.)
type DenseAttr struct {
	// Splat is the scalar value (IntegerAttr or FloatAttr without type
	// suffix semantics).
	Splat Attribute
	Type  Type
}

func (DenseAttr) isAttr() {}

func (a DenseAttr) String() string {
	var inner string
	switch s := a.Splat.(type) {
	case IntegerAttr:
		inner = strconv.FormatInt(s.Value, 10)
	case FloatAttr:
		inner = formatMLIRFloat(s.Value)
	default:
		inner = s.String()
	}
	return "dense<" + inner + "> : " + a.Type.String()
}

// FastMathFlag models the arith dialect's fastmath flags enum.
type FastMathFlag int

// FastMath flag values (a subset: the paper distinguishes none vs fast).
const (
	FastMathNone FastMathFlag = iota
	FastMathFast
	FastMathNNaN
	FastMathNInf
	FastMathContract
	FastMathReassoc
)

func (f FastMathFlag) String() string {
	switch f {
	case FastMathNone:
		return "none"
	case FastMathFast:
		return "fast"
	case FastMathNNaN:
		return "nnan"
	case FastMathNInf:
		return "ninf"
	case FastMathContract:
		return "contract"
	case FastMathReassoc:
		return "reassoc"
	default:
		return fmt.Sprintf("FastMathFlag(%d)", int(f))
	}
}

// ParseFastMathFlag parses a fastmath flag name.
func ParseFastMathFlag(s string) (FastMathFlag, error) {
	switch s {
	case "none":
		return FastMathNone, nil
	case "fast":
		return FastMathFast, nil
	case "nnan":
		return FastMathNNaN, nil
	case "ninf":
		return FastMathNInf, nil
	case "contract":
		return FastMathContract, nil
	case "reassoc":
		return FastMathReassoc, nil
	default:
		return 0, fmt.Errorf("mlir: unknown fastmath flag %q", s)
	}
}

// FastMathAttr is the arith.fastmath attribute, printed fastmath<flag>.
type FastMathAttr struct {
	Flag FastMathFlag
}

func (FastMathAttr) isAttr()          {}
func (a FastMathAttr) String() string { return "fastmath<" + a.Flag.String() + ">" }

// CmpFPredicate enumerates arith.cmpf predicates with their MLIR encoding.
type CmpFPredicate int

// Ordered arith.cmpf predicates (MLIR enum values).
const (
	CmpFAlwaysFalse CmpFPredicate = iota // 0: false
	CmpFOEQ                              // 1
	CmpFOGT                              // 2
	CmpFOGE                              // 3
	CmpFOLT                              // 4
	CmpFOLE                              // 5
	CmpFONE                              // 6
	CmpFORD                              // 7
	CmpFUEQ                              // 8
	CmpFUGT                              // 9
	CmpFUGE                              // 10
	CmpFULT                              // 11
	CmpFULE                              // 12
	CmpFUNE                              // 13
	CmpFUNO                              // 14
	CmpFAlwaysTrue                       // 15
)

var cmpFNames = map[CmpFPredicate]string{
	CmpFAlwaysFalse: "false", CmpFOEQ: "oeq", CmpFOGT: "ogt", CmpFOGE: "oge",
	CmpFOLT: "olt", CmpFOLE: "ole", CmpFONE: "one", CmpFORD: "ord",
	CmpFUEQ: "ueq", CmpFUGT: "ugt", CmpFUGE: "uge", CmpFULT: "ult",
	CmpFULE: "ule", CmpFUNE: "une", CmpFUNO: "uno", CmpFAlwaysTrue: "true",
}

func (p CmpFPredicate) String() string {
	if s, ok := cmpFNames[p]; ok {
		return s
	}
	return fmt.Sprintf("CmpFPredicate(%d)", int(p))
}

// ParseCmpFPredicate parses an arith.cmpf predicate keyword.
func ParseCmpFPredicate(s string) (CmpFPredicate, error) {
	for p, n := range cmpFNames {
		if n == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mlir: unknown cmpf predicate %q", s)
}

// CmpIPredicate enumerates arith.cmpi predicates with their MLIR encoding.
type CmpIPredicate int

// arith.cmpi predicates (MLIR enum values).
const (
	CmpIEQ  CmpIPredicate = iota // 0
	CmpINE                       // 1
	CmpISLT                      // 2
	CmpISLE                      // 3
	CmpISGT                      // 4
	CmpISGE                      // 5
	CmpIULT                      // 6
	CmpIULE                      // 7
	CmpIUGT                      // 8
	CmpIUGE                      // 9
)

var cmpINames = map[CmpIPredicate]string{
	CmpIEQ: "eq", CmpINE: "ne", CmpISLT: "slt", CmpISLE: "sle",
	CmpISGT: "sgt", CmpISGE: "sge", CmpIULT: "ult", CmpIULE: "ule",
	CmpIUGT: "ugt", CmpIUGE: "uge",
}

func (p CmpIPredicate) String() string {
	if s, ok := cmpINames[p]; ok {
		return s
	}
	return fmt.Sprintf("CmpIPredicate(%d)", int(p))
}

// ParseCmpIPredicate parses an arith.cmpi predicate keyword.
func ParseCmpIPredicate(s string) (CmpIPredicate, error) {
	for p, n := range cmpINames {
		if n == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("mlir: unknown cmpi predicate %q", s)
}

// OpaqueAttr carries unmodelled attribute text verbatim.
type OpaqueAttr struct {
	Text string
}

func (OpaqueAttr) isAttr()          {}
func (a OpaqueAttr) String() string { return a.Text }

// GetAttr finds a named attribute on a list; ok is false when absent.
func GetAttr(attrs []NamedAttribute, name string) (Attribute, bool) {
	for _, na := range attrs {
		if na.Name == name {
			return na.Attr, true
		}
	}
	return nil, false
}

// SetAttr replaces or appends a named attribute, returning the new list.
func SetAttr(attrs []NamedAttribute, name string, a Attribute) []NamedAttribute {
	for i, na := range attrs {
		if na.Name == name {
			attrs[i].Attr = a
			return attrs
		}
	}
	return append(attrs, NamedAttribute{Name: name, Attr: a})
}

// AttrEqual compares attributes by canonical text.
func AttrEqual(a, b Attribute) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}
