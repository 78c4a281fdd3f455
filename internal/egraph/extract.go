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
// graph must be rebuilt (congruent) for the results to be meaningful, and
// must not change while the extractor is in use.
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
			t := g.tab(f)
			for ri := range t.rows {
				r := &t.rows[ri]
				if r.dead {
					continue
				}
				cost, ok := e.nodeCost(f, ri)
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

// baseCost returns the own share of the cost of the e-node in row r of f:
// its unstable-cost override when one is set (override true), else the
// constructor's declared cost.
func baseCost(f *Function, r *row) (cost int64, override bool) {
	if r.cost != 0 {
		return r.cost, true
	}
	return f.Cost, false
}

// nodeCost returns the total cost of the e-node in row ri of f, or false
// if some child class has no known cost yet.
func (e *Extractor) nodeCost(f *Function, ri int) (int64, bool) {
	t := e.g.tab(f)
	total, _ := baseCost(f, &t.rows[ri])
	for _, a := range t.argsOf(ri) {
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
	switch v.kind {
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
	if v.kind != KindEq {
		return 0, true
	}
	c, ok := e.bestCost[e.g.uf.Find(uint32(v.Bits))]
	return c, ok
}

// ChosenNode returns the e-node extraction chose for v's class: its
// function, its arguments, and the row's original output (the identity
// proofs are anchored at). ok is false when v is not an eq-sort value or
// its class has no extractable node. The arguments are a window into the
// function's table: they must not be mutated, and they stay valid while
// the graph is unchanged, as the extractor requires anyway.
func (e *Extractor) ChosenNode(v Value) (f *Function, args []Value, out Value, ok bool) {
	if v.kind != KindEq {
		return nil, nil, Value{}, false
	}
	ref, ok := e.bestNode[e.g.uf.Find(uint32(v.Bits))]
	if !ok {
		return nil, nil, Value{}, false
	}
	t := e.g.tab(ref.fn)
	return ref.fn, t.argsOf(ref.row), t.rows[ref.row].out, true
}

// Extract returns the cheapest term of v's class rendered as an
// s-expression, along with its (tree) cost.
//
// Every class is rendered once per extractor: each occurrence of a class in
// the terms this extractor returns is the same *sexp.Node, so rendering
// takes time linear in the classes reached. vec-of lists are built afresh
// at each occurrence.
func (e *Extractor) Extract(v Value) (*sexp.Node, int64, error) {
	n, err := e.term(v)
	if err != nil {
		return nil, 0, err
	}
	c, _ := e.CostOf(v)
	return n, c, nil
}

// DAGCost returns the cost of root's extracted term with every class it
// reaches counted once, the cost of the program a back-translation emits
// when it gives each distinct subterm one definition (see Extract). Each
// class costs its chosen node's own share under the active cost model (see
// NodeChoice.Base); vectors and primitives cost nothing. Extract minimizes
// the tree cost, which counts a shared class at every occurrence, so
// DAGCost never exceeds it.
func (e *Extractor) DAGCost(root Value) (int64, error) {
	var total int64
	err := e.walk([]Value{root}, func(_ uint32, ref nodeRef) {
		c, _ := baseCost(ref.fn, &e.g.tab(ref.fn).rows[ref.row])
		total += c
	})
	return total, err
}

// classWalk is the breadth-first frontier of walk: the classes found so
// far, in visiting order, and the set of them.
type classWalk struct {
	g     *EGraph
	queue []uint32
	seen  map[uint32]bool
}

// push enqueues the classes v refers to that the walk has not seen:
// v's own class, or each element class of a vector.
func (w *classWalk) push(v Value) {
	switch v.kind {
	case KindEq:
		cls := w.g.uf.Find(uint32(v.Bits))
		if !w.seen[cls] {
			w.seen[cls] = true
			w.queue = append(w.queue, cls)
		}
	case KindVec:
		for _, el := range w.g.VecElems(v) {
			w.push(el)
		}
	}
}

// walk visits every class reachable from roots through chosen children
// once, breadth-first in argument order, passing the class's chosen node.
// It fails on a class with no extractable node.
func (e *Extractor) walk(roots []Value, visit func(cls uint32, chosen nodeRef)) error {
	w := classWalk{g: e.g, seen: make(map[uint32]bool)}
	for _, v := range roots {
		w.push(v)
	}
	for i := 0; i < len(w.queue); i++ {
		cls := w.queue[i]
		ref, ok := e.bestNode[cls]
		if !ok {
			return fmt.Errorf("egraph: class %d has no extractable term", cls)
		}
		visit(cls, ref)
		for _, a := range e.g.tab(ref.fn).argsOf(ref.row) {
			w.push(a)
		}
	}
	return nil
}

// eachNode calls fn for every live extractable e-node of class cls, in
// function-declaration and row order, with its row and arguments.
func (e *Extractor) eachNode(cls uint32, fn func(f *Function, ri int, args []Value)) {
	g := e.g
	for _, f := range g.funcs {
		if !f.IsConstructor() || f.Unextractable {
			continue
		}
		t := g.tab(f)
		for ri := range t.rows {
			r := &t.rows[ri]
			if !r.dead && g.uf.Find(uint32(g.Find(r.out).Bits)) == cls {
				fn(f, ri, t.argsOf(ri))
			}
		}
	}
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
	if v.kind != KindEq {
		t, c, err := e.Extract(v)
		if err != nil {
			return nil, err
		}
		return []Variant{{Term: t, Cost: c}}, nil
	}
	seen := make(map[string]bool)
	var out []Variant
	e.eachNode(e.g.uf.Find(uint32(v.Bits)), func(f *Function, ri int, args []Value) {
		cost, ok := e.nodeCost(f, ri)
		if !ok {
			return // unextractable children
		}
		term, err := e.node(f, args)
		if err != nil {
			return
		}
		key := term.String()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Variant{Term: term, Cost: cost})
	})
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
	switch v.kind {
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
		elems := g.VecElems(v)
		list := make([]*sexp.Node, 1, 1+len(elems))
		list[0] = sexp.Symbol("vec-of")
		for _, el := range elems {
			t, err := e.term(el)
			if err != nil {
				return nil, err
			}
			list = append(list, t)
		}
		return sexp.List(list...), nil
	case KindEq:
		cls := g.uf.Find(uint32(v.Bits))
		if t, ok := e.terms[cls]; ok {
			return t, nil
		}
		ref, ok := e.bestNode[cls]
		if !ok {
			return nil, fmt.Errorf("egraph: class %d of sort %s has no extractable term", cls, g.SortOf(v))
		}
		out, err := e.node(ref.fn, g.tab(ref.fn).argsOf(ref.row))
		if err != nil {
			return nil, err
		}
		e.terms[cls] = out
		return out, nil
	default:
		return nil, fmt.Errorf("egraph: cannot extract value of sort %s", g.SortOf(v))
	}
}

// node renders the e-node f(args) with each child's cost-optimal term.
func (e *Extractor) node(f *Function, args []Value) (*sexp.Node, error) {
	list := make([]*sexp.Node, 1, 1+len(args))
	list[0] = sexp.Symbol(f.Name)
	for _, a := range args {
		t, err := e.term(a)
		if err != nil {
			return nil, err
		}
		list = append(list, t)
	}
	return sexp.List(list...), nil
}
