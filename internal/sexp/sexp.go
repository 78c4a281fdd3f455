// Package sexp provides the s-expression data model shared by the egglog
// front end and the DialEgg translation layer.
//
// An s-expression is either an atom — symbol, integer, float, or string — or
// a parenthesized list of s-expressions. Egglog source files, extracted
// terms, and the MLIR-to-egglog encoding all flow through this
// representation.
package sexp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the variants of Node.
type Kind uint8

// The kinds of s-expression nodes.
const (
	KindList Kind = iota
	KindSymbol
	KindInt
	KindFloat
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindList:
		return "list"
	case KindSymbol:
		return "symbol"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node is a single s-expression. Exactly one payload field is meaningful,
// selected by Kind. Nodes are immutable by convention: builders construct
// fresh nodes rather than mutating shared ones.
type Node struct {
	Kind Kind
	// Sym holds the symbol name for KindSymbol.
	Sym string
	// Int holds the value for KindInt.
	Int int64
	// Float holds the value for KindFloat.
	Float float64
	// Str holds the (unquoted) value for KindString.
	Str string
	// List holds the elements for KindList.
	List []*Node
	// Line/Col give the 1-based source position when the node came from the
	// parser; zero otherwise.
	Line, Col int
}

// Symbol returns a new symbol atom.
func Symbol(name string) *Node { return &Node{Kind: KindSymbol, Sym: name} }

// Int returns a new integer atom.
func Int(v int64) *Node { return &Node{Kind: KindInt, Int: v} }

// Float returns a new float atom.
func Float(v float64) *Node { return &Node{Kind: KindFloat, Float: v} }

// String returns a new string atom.
func String(v string) *Node { return &Node{Kind: KindString, Str: v} }

// List returns a new list node with the given elements.
func List(elems ...*Node) *Node { return &Node{Kind: KindList, List: elems} }

// IsSymbol reports whether n is the symbol name.
func (n *Node) IsSymbol(name string) bool { return n.Kind == KindSymbol && n.Sym == name }

// Head returns the leading symbol of a list node, or "" if n is not a list
// or its first element is not a symbol.
func (n *Node) Head() string {
	if n.Kind == KindList && len(n.List) > 0 && n.List[0].Kind == KindSymbol {
		return n.List[0].Sym
	}
	return ""
}

// Args returns the elements of a list after the head, or nil for atoms.
func (n *Node) Args() []*Node {
	if n.Kind == KindList && len(n.List) > 0 {
		return n.List[1:]
	}
	return nil
}

// Equal reports deep structural equality. Floats compare bitwise so that
// NaN == NaN, which is the useful notion for hash-consing terms.
func (n *Node) Equal(m *Node) bool {
	if n == m {
		return true
	}
	if n == nil || m == nil || n.Kind != m.Kind {
		return false
	}
	switch n.Kind {
	case KindSymbol:
		return n.Sym == m.Sym
	case KindInt:
		return n.Int == m.Int
	case KindFloat:
		return math.Float64bits(n.Float) == math.Float64bits(m.Float)
	case KindString:
		return n.Str == m.Str
	case KindList:
		if len(n.List) != len(m.List) {
			return false
		}
		for i := range n.List {
			if !n.List[i].Equal(m.List[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Clone returns a deep copy of n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	if n.Kind == KindList {
		c.List = make([]*Node, len(n.List))
		for i, e := range n.List {
			c.List[i] = e.Clone()
		}
	}
	return &c
}

// String renders n in egglog surface syntax on a single line.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *Node) write(b *strings.Builder) {
	switch n.Kind {
	case KindSymbol:
		b.WriteString(n.Sym)
	case KindInt:
		b.WriteString(strconv.FormatInt(n.Int, 10))
	case KindFloat:
		b.WriteString(FormatFloat(n.Float))
	case KindString:
		b.WriteString(quoteString(n.Str))
	case KindList:
		b.WriteByte('(')
		for i, e := range n.List {
			if i > 0 {
				b.WriteByte(' ')
			}
			e.write(b)
		}
		b.WriteByte(')')
	}
}

// quoteString quotes s emitting only the escapes the parser accepts
// (\" \\ \n \t \r); all other bytes pass through raw, so every string
// value round-trips.
func quoteString(s string) string {
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
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// FormatFloat renders a float in egglog syntax: always with a decimal point
// or exponent so it cannot be confused with an integer literal.
func FormatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	if math.IsNaN(f) {
		return "NaN"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
