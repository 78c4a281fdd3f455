package egraph

import (
	"fmt"

	"dialegg/internal/sexp"
)

// FirstChoiceExtractor is the ablation baseline for the cost-guided
// Extractor: it ignores costs entirely and, for each e-class, picks the
// first e-node (in insertion order) whose children are already resolvable
// — roughly "whatever was there first", which for a saturated graph is
// usually the original, unoptimized program. Comparing its output cost
// against Extractor's quantifies how much of DialEgg's win comes from the
// cost model rather than from rewriting alone (DESIGN.md §5).
type FirstChoiceExtractor struct {
	g      *EGraph
	chosen map[uint32]nodeRef
}

// NewFirstChoiceExtractor resolves a cost-blind choice for every class.
func NewFirstChoiceExtractor(g *EGraph) *FirstChoiceExtractor {
	e := &FirstChoiceExtractor{g: g, chosen: make(map[uint32]nodeRef)}
	// Iterate to a fixed point like the cost extractor, but accept the
	// first resolvable node per class and never revisit.
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
				cls := g.uf.Find(uint32(g.Find(r.out).Bits))
				if _, done := e.chosen[cls]; done {
					continue
				}
				if e.resolvable(r) {
					e.chosen[cls] = nodeRef{fn: f, row: ri}
					changed = true
				}
			}
		}
	}
	return e
}

func (e *FirstChoiceExtractor) resolvable(r *row) bool {
	for _, a := range r.args {
		if !e.valueResolvable(a) {
			return false
		}
	}
	return true
}

func (e *FirstChoiceExtractor) valueResolvable(v Value) bool {
	switch v.Sort.Kind {
	case KindEq:
		_, ok := e.chosen[e.g.uf.Find(uint32(v.Bits))]
		return ok
	case KindVec:
		for _, el := range e.g.VecElems(v) {
			if !e.valueResolvable(el) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Extract returns the chosen term for v's class and its cost under the
// functions' declared costs (for comparison with the cost-guided
// extractor).
func (e *FirstChoiceExtractor) Extract(v Value) (*sexp.Node, int64, error) {
	n, cost, err := e.term(v)
	return n, cost, err
}

func (e *FirstChoiceExtractor) term(v Value) (*sexp.Node, int64, error) {
	g := e.g
	switch v.Sort.Kind {
	case KindI64:
		return sexp.Int(v.AsI64()), 0, nil
	case KindF64:
		return sexp.Float(v.AsF64()), 0, nil
	case KindString:
		return sexp.String(g.StringOf(v)), 0, nil
	case KindBool:
		if v.AsBool() {
			return sexp.Symbol("true"), 0, nil
		}
		return sexp.Symbol("false"), 0, nil
	case KindVec:
		out := sexp.List(sexp.Symbol("vec-of"))
		var total int64
		for _, el := range g.VecElems(v) {
			t, c, err := e.term(el)
			if err != nil {
				return nil, 0, err
			}
			total += c
			out.List = append(out.List, t)
		}
		return out, total, nil
	case KindEq:
		cls := g.uf.Find(uint32(v.Bits))
		ref, ok := e.chosen[cls]
		if !ok {
			return nil, 0, fmt.Errorf("egraph: class %d has no extractable term", cls)
		}
		r := &g.tab(ref.fn).rows[ref.row]
		out := sexp.List(sexp.Symbol(ref.fn.Name))
		total := ref.fn.Cost
		for _, a := range r.args {
			t, c, err := e.term(a)
			if err != nil {
				return nil, 0, err
			}
			total += c
			out.List = append(out.List, t)
		}
		return out, total, nil
	default:
		return nil, 0, fmt.Errorf("egraph: cannot extract value of sort %s", v.Sort)
	}
}
