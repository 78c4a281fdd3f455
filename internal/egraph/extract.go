package egraph

import (
	"fmt"
	"math"
	"sort"

	"dialegg/internal/sexp"
)

// Extractor selects the cheapest term represented by each e-class using a
// bottom-up fixed-point over node costs. Node cost = the constructor's
// default cost (or the per-node `unstable-cost` override) plus the cost of
// every child e-class; primitive children are free; vector children cost
// the sum of their element classes. Because every node cost is >= 1, the
// chosen term is always finite (a node is strictly more expensive than any
// of its children, so no class can select a cycle through itself).
type Extractor struct {
	g *EGraph
	// bestCost maps canonical class ID -> cheapest known cost.
	bestCost map[uint32]int64
	// bestNode maps canonical class ID -> (function, row index) of the
	// chosen e-node.
	bestNode map[uint32]nodeRef
	// terms memoizes the extracted term of each canonical class, so every
	// occurrence of a class shares one node: extracted terms are DAGs, and
	// building one costs time linear in the classes it reaches. Callers
	// must not mutate them (sexp nodes are immutable by convention).
	terms map[uint32]*sexp.Node
}

type nodeRef struct {
	fn  *Function
	row int
}

// NewExtractor computes best costs for every e-class currently in g. The
// graph must be rebuilt (congruent) for the results to be meaningful.
func NewExtractor(g *EGraph) *Extractor {
	e := &Extractor{
		g:        g,
		bestCost: make(map[uint32]int64),
		bestNode: make(map[uint32]nodeRef),
		terms:    make(map[uint32]*sexp.Node),
	}
	e.run()
	return e
}

func (e *Extractor) run() {
	g := e.g
	for changed := true; changed; {
		changed = false
		for _, f := range g.funcs {
			if !f.IsConstructor() || f.Unextractable {
				continue
			}
			rows := g.tab(f).rows
			for ri := range rows {
				r := &rows[ri]
				if r.dead {
					continue
				}
				cost, ok := e.nodeCost(f, r)
				if !ok {
					continue
				}
				cls := g.uf.Find(uint32(g.Find(r.out).Bits))
				if best, seen := e.bestCost[cls]; !seen || cost < best {
					e.bestCost[cls] = cost
					e.bestNode[cls] = nodeRef{fn: f, row: ri}
					changed = true
				}
			}
		}
	}
}

// nodeCost returns the total cost of the e-node at row r of f, or false if
// some child class has no known cost yet.
func (e *Extractor) nodeCost(f *Function, r *row) (int64, bool) {
	base := f.Cost
	if e.g.costs[f.id] != nil {
		// Row args are not guaranteed canonical between rebuilds; the cost
		// table is canonicalized during Rebuild, so canonicalize the key.
		canon := make([]Value, len(r.args))
		for i, a := range r.args {
			canon[i] = e.g.Find(a)
		}
		if c, ok := e.g.costs[f.id][argsKey(canon)]; ok {
			base = c
		}
	}
	total := base
	for _, a := range r.args {
		c, ok := e.valueCost(a)
		if !ok {
			return 0, false
		}
		total += c
		if total < 0 { // overflow guard
			total = math.MaxInt64 / 2
		}
	}
	return total, true
}

func (e *Extractor) valueCost(v Value) (int64, bool) {
	switch v.Sort.Kind {
	case KindEq:
		cls := e.g.uf.Find(uint32(v.Bits))
		c, ok := e.bestCost[cls]
		return c, ok
	case KindVec:
		var total int64
		for _, el := range e.g.VecElems(v) {
			c, ok := e.valueCost(el)
			if !ok {
				return 0, false
			}
			total += c
		}
		return total, true
	default:
		return 0, true
	}
}

// CostOf returns the cheapest cost of the class of v (which must be an
// eq-sort value), or false if the class contains no extractable node.
func (e *Extractor) CostOf(v Value) (int64, bool) {
	if v.Sort.Kind != KindEq {
		return 0, true
	}
	c, ok := e.bestCost[e.g.uf.Find(uint32(v.Bits))]
	return c, ok
}

// Extract returns the cheapest term of v's class rendered as an
// s-expression, along with its cost.
func (e *Extractor) Extract(v Value) (*sexp.Node, int64, error) {
	n, err := e.term(v)
	if err != nil {
		return nil, 0, err
	}
	c, _ := e.CostOf(v)
	return n, c, nil
}

// Variant is one alternative representation of an e-class.
type Variant struct {
	Term *sexp.Node
	Cost int64
}

// ExtractVariants returns up to n distinct terms of v's class, cheapest
// first (egglog's `extract :variants`): each live e-node of the root class
// is rendered with cost-optimal children, then deduplicated. Only the root
// node varies; exhaustively enumerating child combinations would be
// exponential.
func (e *Extractor) ExtractVariants(v Value, n int) ([]Variant, error) {
	if v.Sort.Kind != KindEq {
		t, c, err := e.Extract(v)
		if err != nil {
			return nil, err
		}
		return []Variant{{Term: t, Cost: c}}, nil
	}
	g := e.g
	cls := g.uf.Find(uint32(v.Bits))
	seen := make(map[string]bool)
	var out []Variant
	for _, f := range g.funcs {
		if !f.IsConstructor() || f.Unextractable {
			continue
		}
		rows := g.tab(f).rows
		for ri := range rows {
			r := &rows[ri]
			if r.dead || g.uf.Find(uint32(g.Find(r.out).Bits)) != cls {
				continue
			}
			cost, ok := e.nodeCost(f, r)
			if !ok {
				continue // unextractable children
			}
			term := sexp.List(sexp.Symbol(f.Name))
			bad := false
			for _, a := range r.args {
				t, err := e.term(a)
				if err != nil {
					bad = true
					break
				}
				term.List = append(term.List, t)
			}
			if bad {
				continue
			}
			key := term.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Variant{Term: term, Cost: cost})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Term.String() < out[j].Term.String()
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("egraph: class has no extractable variants")
	}
	return out, nil
}

func (e *Extractor) term(v Value) (*sexp.Node, error) {
	g := e.g
	switch v.Sort.Kind {
	case KindI64:
		return sexp.Int(v.AsI64()), nil
	case KindF64:
		return sexp.Float(v.AsF64()), nil
	case KindString:
		return sexp.String(g.StringOf(v)), nil
	case KindBool:
		if v.AsBool() {
			return sexp.Symbol("true"), nil
		}
		return sexp.Symbol("false"), nil
	case KindVec:
		out := sexp.List(sexp.Symbol("vec-of"))
		for _, el := range g.VecElems(v) {
			t, err := e.term(el)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, t)
		}
		return out, nil
	case KindEq:
		cls := g.uf.Find(uint32(v.Bits))
		if t, ok := e.terms[cls]; ok {
			return t, nil
		}
		ref, ok := e.bestNode[cls]
		if !ok {
			return nil, fmt.Errorf("egraph: class %d of sort %s has no extractable term", cls, v.Sort)
		}
		r := &g.tab(ref.fn).rows[ref.row]
		out := sexp.List(sexp.Symbol(ref.fn.Name))
		for _, a := range r.args {
			t, err := e.term(a)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, t)
		}
		e.terms[cls] = out
		return out, nil
	default:
		return nil, fmt.Errorf("egraph: cannot extract value of sort %s", v.Sort)
	}
}
