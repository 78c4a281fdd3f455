package dialegg

import (
	"fmt"

	"dialegg/internal/mlir"
	"dialegg/internal/sexp"
)

// TypeCodec is a user-provided eggifier/de-eggifier pair for a custom MLIR
// type (§5.2). The paper requires two small C++ functions per custom type;
// here they are two Go functions registered with the optimizer. Head names
// the egglog constructor the codec produces, which the user's rule file
// must declare with output sort Type.
type TypeCodec struct {
	// Head is the egglog function name produced by Eggify (and dispatched
	// on by DeEggify).
	Head string
	// Matches reports whether this codec handles the type.
	Matches func(t mlir.Type) bool
	// Eggify renders the type as an egglog term headed by Head.
	Eggify func(t mlir.Type) (*sexp.Node, error)
	// DeEggify rebuilds the type from a term headed by Head.
	DeEggify func(n *sexp.Node) (mlir.Type, error)
}

// AttrCodec is the attribute analogue of TypeCodec; its constructor must
// be declared with output sort Attr.
type AttrCodec struct {
	Head     string
	Matches  func(a mlir.Attribute) bool
	Eggify   func(a mlir.Attribute) (*sexp.Node, error)
	DeEggify func(n *sexp.Node) (mlir.Attribute, error)
}

// Codecs bundles the custom type/attribute codecs of one optimizer
// configuration. The zero value uses only the built-in encodings.
type Codecs struct {
	Types []TypeCodec
	Attrs []AttrCodec
}

// TypeToTerm renders an MLIR type, trying custom codecs before the
// built-in encodings (which fall back to OpaqueType).
func (c *Codecs) TypeToTerm(t mlir.Type) (*sexp.Node, error) {
	n, err := c.eggifyType(t)
	if n == nil && err == nil {
		n = TypeToTerm(t)
	}
	return n, err
}

// eggifyType returns the term of the first custom codec matching t, or
// nil when none does.
func (c *Codecs) eggifyType(t mlir.Type) (*sexp.Node, error) {
	if c == nil {
		return nil, nil
	}
	for i := range c.Types {
		tc := &c.Types[i]
		if tc.Matches(t) {
			n, err := tc.Eggify(t)
			if err != nil {
				return nil, fmt.Errorf("dialegg: eggify type %s: %w", t, err)
			}
			if n.Head() != tc.Head {
				return nil, fmt.Errorf("dialegg: codec %q produced head %q", tc.Head, n.Head())
			}
			return n, nil
		}
	}
	return nil, nil
}

// TermToType parses a type term, dispatching custom heads to their codecs.
func (c *Codecs) TermToType(n *sexp.Node) (mlir.Type, error) {
	if c != nil {
		head := n.Head()
		for i := range c.Types {
			if c.Types[i].Head == head {
				return c.Types[i].DeEggify(n)
			}
		}
	}
	return TermToType(n)
}

// AttrToTerm renders an attribute, trying custom codecs first.
func (c *Codecs) AttrToTerm(a mlir.Attribute) (*sexp.Node, error) {
	n, err := c.eggifyAttr(a)
	if n == nil && err == nil {
		n = AttrToTerm(a)
	}
	return n, err
}

// eggifyAttr returns the term of the first custom codec matching a, or
// nil when none does.
func (c *Codecs) eggifyAttr(a mlir.Attribute) (*sexp.Node, error) {
	if c == nil {
		return nil, nil
	}
	for i := range c.Attrs {
		ac := &c.Attrs[i]
		if ac.Matches(a) {
			n, err := ac.Eggify(a)
			if err != nil {
				return nil, fmt.Errorf("dialegg: eggify attribute %s: %w", a, err)
			}
			if n.Head() != ac.Head {
				return nil, fmt.Errorf("dialegg: codec %q produced head %q", ac.Head, n.Head())
			}
			return n, nil
		}
	}
	return nil, nil
}

// TermToAttr parses an attribute term, dispatching custom heads first.
func (c *Codecs) TermToAttr(n *sexp.Node) (mlir.Attribute, error) {
	if c != nil {
		head := n.Head()
		for i := range c.Attrs {
			if c.Attrs[i].Head == head {
				return c.Attrs[i].DeEggify(n)
			}
		}
	}
	return TermToAttr(n)
}

// TermToNamedAttr parses (NamedAttr "name" attr) via the codec set.
func (c *Codecs) TermToNamedAttr(n *sexp.Node) (mlir.NamedAttribute, error) {
	if n.Head() != "NamedAttr" || len(n.Args()) != 2 || n.Args()[0].Kind != sexp.KindString {
		return mlir.NamedAttribute{}, fmt.Errorf("dialegg: malformed NamedAttr %s", n)
	}
	a, err := c.TermToAttr(n.Args()[1])
	if err != nil {
		return mlir.NamedAttribute{}, err
	}
	return mlir.NamedAttribute{Name: n.Args()[0].Str, Attr: a}, nil
}

// TupleTypeCodec is a ready-made codec structurally encoding 2-element
// builtin tuple types as (Tuple2 a b) — the §5.2 example of a type the
// built-in encoding would otherwise treat as opaque. The user rule file
// must declare: (function Tuple2 (Type Type) Type).
func TupleTypeCodec() TypeCodec {
	return TypeCodec{
		Head: "Tuple2",
		Matches: func(t mlir.Type) bool {
			tt, ok := t.(mlir.TupleType)
			return ok && len(tt.Elems) == 2
		},
		Eggify: func(t mlir.Type) (*sexp.Node, error) {
			tt := t.(mlir.TupleType)
			a := TypeToTerm(tt.Elems[0])
			b := TypeToTerm(tt.Elems[1])
			return sexp.List(sexp.Symbol("Tuple2"), a, b), nil
		},
		DeEggify: func(n *sexp.Node) (mlir.Type, error) {
			if len(n.Args()) != 2 {
				return nil, fmt.Errorf("Tuple2 expects 2 args")
			}
			a, err := TermToType(n.Args()[0])
			if err != nil {
				return nil, err
			}
			b, err := TermToType(n.Args()[1])
			if err != nil {
				return nil, err
			}
			return mlir.TupleType{Elems: []mlir.Type{a, b}}, nil
		},
	}
}
