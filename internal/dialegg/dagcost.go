package dialegg

import (
	"dialegg/internal/egglog"
	"dialegg/internal/sexp"
)

// TermDAGCost computes the cost of an extracted term counting each
// distinct subterm once — the cost of the program the back-translation
// actually emits, since structurally identical subterms become one SSA
// definition (§5.3). The e-graph extractor minimizes *tree* cost (shared
// subterms counted at every occurrence, as in egg and egglog), so the two
// can differ; reports expose both. costOf maps an egglog constructor name
// to its cost (unknown heads cost 1, primitives cost 0). Subterms are
// deduplicated by structural ID, so a term that shares subterms by pointer
// (as extracted terms do) costs time linear in its distinct nodes.
func TermDAGCost(term *sexp.Node, costOf func(head string) int64) int64 {
	return termDAGCost(term, costOf, sexp.NewInterner())
}

// termDAGCost is TermDAGCost numbering subterms with ids, which the
// optimizer then hands on to the back-translation so each extracted term
// is numbered once.
func termDAGCost(term *sexp.Node, costOf func(head string) int64, ids *sexp.Interner) int64 {
	var seen []bool // by structural ID
	var walk func(n *sexp.Node) int64
	walk = func(n *sexp.Node) int64 {
		if n.Kind != sexp.KindList {
			return 0
		}
		id := int(ids.ID(n))
		if id < len(seen) && seen[id] {
			return 0
		}
		if id >= len(seen) {
			seen = append(seen, make([]bool, id+1-len(seen))...)
		}
		seen[id] = true
		total := costOf(n.Head())
		for _, a := range n.Args() {
			total += walk(a)
		}
		return total
	}
	return walk(term)
}

// costOfProgram builds a head-cost lookup from a program's declared
// constructor costs (vec-of and unknown heads cost 0; they are structure,
// not operations).
func costOfProgram(p *egglog.Program) func(string) int64 {
	return func(head string) int64 {
		if head == "vec-of" {
			return 0
		}
		if f, ok := p.Graph().FunctionByName(head); ok {
			return f.Cost
		}
		return 0
	}
}
