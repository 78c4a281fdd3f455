package sexp

import (
	"encoding/binary"
	"math"
)

// Interner numbers nodes by structure: two nodes get the same ID exactly
// when they are Equal. A node's ID is computed once per node pointer, from
// its children's IDs, so numbering a term whose subterms are shared by
// pointer (an extracted term DAG) costs time linear in its distinct nodes,
// not in the size of the tree it prints as. IDs are dense from 0 in order
// of first appearance.
type Interner struct {
	byNode map[*Node]uint32
	byKey  map[string]uint32
	buf    []byte
}

// NewInterner returns an empty Interner.
func NewInterner() *Interner {
	return &Interner{byNode: make(map[*Node]uint32), byKey: make(map[string]uint32)}
}

// ID returns n's structural ID.
func (in *Interner) ID(n *Node) uint32 {
	if id, ok := in.byNode[n]; ok {
		return id
	}
	var key []byte
	switch n.Kind {
	case KindList:
		// Number the children before building the key: the recursion
		// reuses the key buffer.
		var small [8]uint32
		kids := small[:0]
		for _, e := range n.List {
			kids = append(kids, in.ID(e))
		}
		key = append(in.buf[:0], byte(n.Kind))
		for _, k := range kids {
			key = binary.AppendUvarint(key, uint64(k))
		}
	case KindSymbol:
		key = append(append(in.buf[:0], byte(n.Kind)), n.Sym...)
	case KindInt:
		key = binary.AppendVarint(append(in.buf[:0], byte(n.Kind)), n.Int)
	case KindFloat:
		key = binary.LittleEndian.AppendUint64(append(in.buf[:0], byte(n.Kind)), math.Float64bits(n.Float))
	case KindString:
		key = append(append(in.buf[:0], byte(n.Kind)), n.Str...)
	}
	in.buf = key
	id, ok := in.byKey[string(key)]
	if !ok {
		id = uint32(len(in.byKey))
		in.byKey[string(key)] = id
	}
	in.byNode[n] = id
	return id
}
