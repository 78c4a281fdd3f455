// Package egraph implements the equality-saturation engine underlying the
// egglog dialect interpreter.
//
// The design follows egglog's relational model: every user-declared function
// is a table mapping argument tuples to an output value. Functions whose
// output sort is an equivalence sort ("eq-sort") are term constructors and
// their outputs are e-class IDs managed by a union-find; functions with a
// primitive output sort (i64, f64, String, bool, vectors) are ordinary
// tables updated with Set. Congruence closure is restored by Rebuild, which
// re-canonicalizes every table row and merges rows that collide.
package egraph

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// SortKind discriminates the kinds of sorts known to the engine.
type SortKind uint8

// The available sort kinds.
const (
	// KindEq is a user-declared equivalence sort: values are e-class IDs
	// subject to union.
	KindEq SortKind = iota
	// KindI64 is the builtin 64-bit integer primitive.
	KindI64
	// KindF64 is the builtin 64-bit float primitive.
	KindF64
	// KindString is the builtin string primitive (interned).
	KindString
	// KindBool is the builtin boolean primitive.
	KindBool
	// KindVec is a vector of values of the element sort (hash-consed).
	KindVec
	// KindUnit is the output sort of functions used purely as relations.
	KindUnit
)

func (k SortKind) String() string {
	switch k {
	case KindEq:
		return "eqsort"
	case KindI64:
		return "i64"
	case KindF64:
		return "f64"
	case KindString:
		return "String"
	case KindBool:
		return "bool"
	case KindVec:
		return "Vec"
	case KindUnit:
		return "Unit"
	default:
		return fmt.Sprintf("SortKind(%d)", uint8(k))
	}
}

// Sort describes a value domain. Sorts are created once per EGraph and
// compared by pointer identity. The graph that declares a sort numbers it
// in its sort table (EGraph.SortOf), so a Value names its sort by that
// number instead of by pointer.
type Sort struct {
	Name string
	Kind SortKind
	// Elem is the element sort for KindVec sorts, nil otherwise.
	Elem *Sort

	// id is the sort's index in the declaring graph's sort table, shared
	// by that graph's clones; 0 until the sort is declared.
	id uint32
}

func (s *Sort) String() string { return s.Name }

// holdsClasses reports whether a value of sort s can hold an e-class ID:
// s is an eq-sort or a vector, at any depth, of one. Every value of any
// other sort is its own canonical form.
func (s *Sort) holdsClasses() bool {
	for s.Kind == KindVec {
		s = s.Elem
	}
	return s.Kind == KindEq
}

// value returns the Value of sort s with payload bits.
func (s *Sort) value(bits uint64) Value { return Value{Bits: bits, sort: s.id, kind: s.Kind} }

// Value is a single engine value: an e-class ID for eq-sorts or a payload
// for primitive sorts. The interpretation of Bits depends on the sort's
// kind (Kind):
//
//	KindEq     e-class ID (union-find element)
//	KindI64    int64 bits
//	KindF64    math.Float64bits
//	KindString index into the graph's string pool
//	KindBool   0 or 1
//	KindVec    index into the graph's vector pool
//	KindUnit   always 0
//
// A Value holds no pointer: it names its sort by index into its graph's
// sort table (EGraph.SortOf resolves it) and carries the sort's kind
// inline, so canonicalization and matching switch on the kind without a
// dependent load, and copying values into rows, bindings and match
// buffers costs the garbage collector nothing. Index 0 names no sort: the
// zero Value is sortless.
type Value struct {
	Bits uint64
	sort uint32
	kind SortKind
}

// Kind returns the kind of v's sort.
func (v Value) Kind() SortKind { return v.kind }

// HasSort reports whether v is a value of sort s, a sort of v's graph.
func (v Value) HasSort(s *Sort) bool { return v.sort == s.id }

// I64Value wraps an int64 as a Value of sort s (s must be KindI64).
func I64Value(s *Sort, v int64) Value { return s.value(uint64(v)) }

// F64Value wraps a float64 as a Value of sort s (s must be KindF64).
func F64Value(s *Sort, v float64) Value { return s.value(math.Float64bits(v)) }

// BoolValue wraps a bool as a Value of sort s (s must be KindBool).
func BoolValue(s *Sort, v bool) Value {
	var b uint64
	if v {
		b = 1
	}
	return s.value(b)
}

// AsI64 returns the int64 payload.
func (v Value) AsI64() int64 { return int64(v.Bits) }

// AsF64 returns the float64 payload.
func (v Value) AsF64() float64 { return math.Float64frombits(v.Bits) }

// AsBool returns the boolean payload.
func (v Value) AsBool() bool { return v.Bits != 0 }

// stringPool interns strings so Value equality on KindString is bit
// equality. Interning is mutex-guarded because rule matching runs
// concurrently and string primitives may intern new values.
type stringPool struct {
	mu     sync.Mutex
	byText map[string]uint32
	texts  []string
}

func newStringPool() *stringPool {
	return &stringPool{byText: make(map[string]uint32)}
}

func (p *stringPool) intern(s string) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.byText[s]; ok {
		return id
	}
	id := uint32(len(p.texts))
	p.texts = append(p.texts, s)
	p.byText[s] = id
	return id
}

func (p *stringPool) get(id uint32) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.texts[id]
}

// vecPool hash-conses vectors of values. Two vectors whose elements are
// equal Values, sort and bits, share an index, so Value equality on
// KindVec is bit equality for canonical values; vectors of different
// element sorts never share one, even when their elements' bits agree.
// Vectors are numbered in the order they are first interned. Interning is
// mutex-guarded for the concurrent match phase (vec-of premises intern
// new vectors).
//
// index is an open-addressed hash table over the vectors, probed linearly
// from hashArgs of the elements' bits: entry id+1 names vecs[id] and 0 is
// empty. It is at most half full. Like the row index it is only probed,
// never iterated, so its seeded hash reaches no output.
type vecPool struct {
	mu    sync.Mutex
	index []uint32
	vecs  [][]Value
}

func newVecPool() *vecPool { return &vecPool{} }

// intern returns the number of the vector whose elements are elems,
// storing a copy of elems when there is none.
func (p *vecPool) intern(elems []Value) uint32 {
	h := hashArgs(elems)
	p.mu.Lock()
	defer p.mu.Unlock()
	entry := p.find(h, elems)
	if entry >= 0 && p.index[entry] != 0 {
		return p.index[entry] - 1
	}
	id := uint32(len(p.vecs))
	p.vecs = append(p.vecs, slices.Clone(elems))
	if 2*len(p.vecs) > len(p.index) {
		p.grow()
	} else {
		p.index[entry] = id + 1
	}
	return id
}

// find returns the entry of the vector whose elements are elems, which
// hash to h, or the empty entry its probe stopped at (-1 while the index
// is empty).
func (p *vecPool) find(h uint64, elems []Value) int {
	if len(p.index) == 0 {
		return -1
	}
	mask := uint64(len(p.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := p.index[i]
		if e == 0 {
			return int(i)
		}
		if slices.Equal(p.vecs[e-1], elems) {
			return int(i)
		}
	}
}

// grow rebuilds the index from the vectors, sized so that it is at most a
// quarter full.
func (p *vecPool) grow() {
	n := 8
	for n < 4*len(p.vecs) {
		n *= 2
	}
	p.index = make([]uint32, n)
	for id, v := range p.vecs {
		p.index[p.find(hashArgs(v), v)] = uint32(id + 1)
	}
}

func (p *vecPool) get(id uint32) []Value {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vecs[id]
}
