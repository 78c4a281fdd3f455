// Package unionfind implements a disjoint-set forest used by the e-graph to
// track equivalence classes of e-nodes.
//
// The implementation uses union by size and path halving, giving effectively
// amortized-constant Find and Union. Element identifiers are dense
// non-negative integers handed out by MakeSet, which matches how e-class IDs
// are allocated by the e-graph.
package unionfind

import "sync/atomic"

// UF is a disjoint-set forest over dense integer identifiers.
//
// The zero value is an empty forest ready for use. Find is safe to call
// concurrently with other Finds (its path-halving writes use atomics and
// only ever move pointers closer to the root); MakeSet and Union require
// external synchronization against everything else.
type UF struct {
	parent []atomic.Uint32
	size   []uint32
}

// New returns an empty forest. Equivalent to new(UF).
func New() *UF {
	return &UF{}
}

// Len reports the number of elements ever created with MakeSet. Each
// Union of two distinct sets removes one set, so Len less the number of
// such Unions is the number of sets.
func (u *UF) Len() int { return len(u.parent) }

// MakeSet creates a fresh singleton set and returns its identifier.
// Identifiers are allocated densely starting at 0.
func (u *UF) MakeSet() uint32 {
	id := uint32(len(u.parent))
	u.parent = append(u.parent, atomic.Uint32{})
	u.parent[id].Store(id)
	u.size = append(u.size, 1)
	return id
}

// Find returns the canonical representative of x's set, applying path
// halving along the way. x must have been returned by MakeSet. Concurrent
// Finds are safe: halving only rewrites a pointer to an ancestor, so
// races between halvings converge to the same roots.
func (u *UF) Find(x uint32) uint32 {
	p := u.parent
	for {
		px := p[x].Load()
		if px == x {
			return x
		}
		gp := p[px].Load()
		if gp != px {
			p[x].Store(gp)
		}
		x = gp
	}
}

// SameSet reports whether a and b are in the same set.
func (u *UF) SameSet(a, b uint32) bool { return u.Find(a) == u.Find(b) }

// Union merges the sets containing a and b and returns the representative of
// the merged set. When the sets differ in size the larger set's root wins,
// which keeps trees shallow. If a and b are already in the same set the
// shared root is returned unchanged.
func (u *UF) Union(a, b uint32) uint32 {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb].Store(ra)
	u.size[ra] += u.size[rb]
	return ra
}

// Clone returns an independent copy of the forest: the same parents and
// sizes. Safe to call concurrently with other Clones and Finds, not with
// MakeSet or Union.
func (u *UF) Clone() *UF {
	c := &UF{
		parent: make([]atomic.Uint32, len(u.parent)),
		size:   append([]uint32(nil), u.size...),
	}
	for i := range u.parent {
		c.parent[i].Store(u.parent[i].Load())
	}
	return c
}

// SizeOf returns the number of elements in x's set.
func (u *UF) SizeOf(x uint32) int { return int(u.size[u.Find(x)]) }
