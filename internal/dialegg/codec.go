package dialegg

import (
	"fmt"

	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
)

// TypeCodec is a user-provided eggifier/de-eggifier pair for a custom MLIR
// type (§5.2). The paper requires two small C++ functions per custom type;
// here they are two Go functions registered with the optimizer. Head names
// the egglog constructor the codec produces, which the user's rule file
// must declare with output sort Type.
type TypeCodec struct {
	// Head is the egglog function a matching type is encoded as, and the
	// function of an extracted node that DeEggify decodes.
	Head string
	// Matches reports whether this codec handles the type. Eggify cannot
	// fail, so a codec declines here any type it cannot encode.
	Matches func(t mlir.Type) bool
	// Eggify returns the arguments of the type's Head node, built through
	// e; e applies Head to them.
	Eggify func(e *Encoder, t mlir.Type) []Term
	// DeEggify rebuilds the type from the arguments of an extracted Head
	// node, read through d.
	DeEggify func(d *Decoder, args []egraph.Value) (mlir.Type, error)
}

// AttrCodec is the attribute analogue of TypeCodec; its constructor must
// be declared with output sort Attr.
type AttrCodec struct {
	Head     string
	Matches  func(a mlir.Attribute) bool
	Eggify   func(e *Encoder, a mlir.Attribute) []Term
	DeEggify func(d *Decoder, args []egraph.Value) (mlir.Attribute, error)
}

// Codecs bundles the custom type/attribute codecs of one optimizer
// configuration. The zero value uses only the built-in encodings. Every
// type and attribute, nested ones included, goes to the first matching
// codec before the built-in encoding.
type Codecs struct {
	Types []TypeCodec
	Attrs []AttrCodec
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
		Eggify: func(e *Encoder, t mlir.Type) []Term {
			tt := t.(mlir.TupleType)
			return []Term{e.Type(tt.Elems[0]), e.Type(tt.Elems[1])}
		},
		DeEggify: func(d *Decoder, args []egraph.Value) (mlir.Type, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("Tuple2 expects 2 args")
			}
			a, err := d.Type(args[0])
			if err != nil {
				return nil, err
			}
			b, err := d.Type(args[1])
			if err != nil {
				return nil, err
			}
			return mlir.TupleType{Elems: []mlir.Type{a, b}}, nil
		},
	}
}
