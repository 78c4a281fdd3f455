package egraph

import (
	"fmt"
	"strings"

	"dialegg/internal/sexp"
)

// Justification records why two e-classes were united: a named rule, an
// explicit union (egglog's union command / Set merge), or congruence
// (their children were pairwise equal).
type Justification struct {
	// Kind is "rule", "explicit", or "congruence".
	Kind string
	// Rule is the rule name for Kind == "rule".
	Rule string
	// Fn, ArgsA, ArgsB describe the two congruent applications for
	// Kind == "congruence" (canonical argument tuples at merge time).
	Fn    *Function
	ArgsA []Value
	ArgsB []Value
	// Iter is the saturation iteration the union happened at (stamped by
	// UnionWithReason from the graph-lifetime counter; 0 outside runs).
	Iter int
}

func (j Justification) String() string {
	switch j.Kind {
	case "rule":
		return "rule " + j.Rule
	case "congruence":
		return "congruence of " + j.Fn.Name
	default:
		return "explicit union"
	}
}

// proofForest is the explanation overlay over the union-find: an
// uncompressed forest where each link carries the justification of the
// union that created it (Nelson–Oppen style proof forest). Lookups walk
// the original, uncompressed structure, so paths reproduce the exact
// sequence of merges.
type proofForest struct {
	parent []uint32
	edge   []Justification
}

func (p *proofForest) ensure(n int) {
	for len(p.parent) < n {
		id := uint32(len(p.parent))
		p.parent = append(p.parent, id)
		p.edge = append(p.edge, Justification{})
	}
}

// link records that a was united with b because of j: the path from a to
// its proof root is reversed so a becomes a root, then a is hung under b.
func (p *proofForest) link(a, b uint32, j Justification) {
	// Reverse the path a -> root(a).
	cur := a
	prevParent := p.parent[cur]
	prevEdge := p.edge[cur]
	p.parent[cur] = cur
	for prevParent != cur {
		next := p.parent[prevParent]
		nextEdge := p.edge[prevParent]
		p.parent[prevParent] = cur
		p.edge[prevParent] = prevEdge
		cur, prevParent, prevEdge = prevParent, next, nextEdge
	}
	p.parent[a] = b
	p.edge[a] = j
}

// ExplainStep is one link of an equality proof: left and right are e-class
// representatives (element IDs) equated directly by Reason.
type ExplainStep struct {
	Left, Right uint32
	Reason      Justification
	// Children holds sub-proofs for congruence steps: the pairwise
	// argument equalities.
	Children [][]ExplainStep
}

// EnableExplanations turns on proof recording. It must be called before
// any unions whose provenance should be tracked (typically right after
// New). Tables created afterwards also preserve as-inserted argument
// tuples so congruence steps can be explained.
func (g *EGraph) EnableExplanations() {
	if g.proofs == nil {
		g.proofs = &proofForest{}
		g.proofs.ensure(g.uf.Len())
	}
	for _, t := range g.tables {
		t.trackOrig = true
	}
	g.trackOrig = true
}

// ExplanationsEnabled reports whether proof recording is on.
func (g *EGraph) ExplanationsEnabled() bool { return g.proofs != nil }

// recordUnion is called by Union with the caller's justification.
func (g *EGraph) recordUnion(a, b uint32, j Justification) {
	if g.proofs == nil {
		return
	}
	g.proofs.ensure(g.uf.Len())
	g.proofs.link(a, b, j)
}

const maxExplainDepth = 64

// Explain produces a proof that a and b are equal: the chain of direct
// unions connecting them, with congruence steps carrying sub-proofs for
// their argument equalities. Fails if explanations are disabled or the
// values are not equal.
func (g *EGraph) Explain(a, b Value) ([]ExplainStep, error) {
	if g.proofs == nil {
		return nil, fmt.Errorf("egraph: explanations are not enabled")
	}
	if a.Sort != b.Sort || a.Sort.Kind != KindEq {
		return nil, fmt.Errorf("egraph: can only explain eq-sort equalities")
	}
	if !g.Eq(a, b) {
		return nil, fmt.Errorf("egraph: values are not equal; nothing to explain")
	}
	return g.explainIDs(uint32(a.Bits), uint32(b.Bits), 0)
}

func (g *EGraph) explainIDs(x, y uint32, depth int) ([]ExplainStep, error) {
	if x == y {
		return nil, nil
	}
	if depth > maxExplainDepth {
		return nil, fmt.Errorf("egraph: explanation exceeds depth %d", maxExplainDepth)
	}
	p := g.proofs
	p.ensure(g.uf.Len())

	// Collect x's ancestor chain with positions.
	pos := make(map[uint32]int)
	var xChain []uint32
	for cur := x; ; {
		pos[cur] = len(xChain)
		xChain = append(xChain, cur)
		next := p.parent[cur]
		if next == cur {
			break
		}
		cur = next
	}
	// Walk y upward until the chains meet.
	var yChain []uint32
	meet := -1
	for cur := y; ; {
		if at, ok := pos[cur]; ok {
			meet = at
			break
		}
		yChain = append(yChain, cur)
		next := p.parent[cur]
		if next == cur {
			break
		}
		cur = next
	}
	if meet < 0 {
		return nil, fmt.Errorf("egraph: proof forest has no path between %d and %d", x, y)
	}

	var steps []ExplainStep
	emit := func(from uint32) error {
		st := ExplainStep{Left: from, Right: p.parent[from], Reason: p.edge[from]}
		if st.Reason.Kind == "congruence" {
			for i := range st.Reason.ArgsA {
				sub, err := g.explainValues(st.Reason.ArgsA[i], st.Reason.ArgsB[i], depth+1)
				if err != nil {
					return err
				}
				if sub != nil {
					st.Children = append(st.Children, sub)
				}
			}
		}
		steps = append(steps, st)
		return nil
	}
	for _, n := range xChain[:meet] {
		if err := emit(n); err != nil {
			return nil, err
		}
	}
	// y's side, reversed (proof edges point upward; the printed direction
	// is immaterial for an equality chain).
	for i := len(yChain) - 1; i >= 0; i-- {
		if err := emit(yChain[i]); err != nil {
			return nil, err
		}
	}
	return steps, nil
}

// explainValues explains equality of two values: eq-sorts recurse into the
// forest; vectors explain element-wise; identical primitives need nothing.
func (g *EGraph) explainValues(a, b Value, depth int) ([]ExplainStep, error) {
	if a.Bits == b.Bits && a.Sort == b.Sort {
		return nil, nil
	}
	switch a.Sort.Kind {
	case KindEq:
		return g.explainIDs(uint32(a.Bits), uint32(b.Bits), depth)
	case KindVec:
		ea, eb := g.VecElems(a), g.VecElems(b)
		if len(ea) != len(eb) {
			return nil, fmt.Errorf("egraph: congruent vectors of different lengths")
		}
		var all []ExplainStep
		for i := range ea {
			sub, err := g.explainValues(ea[i], eb[i], depth)
			if err != nil {
				return nil, err
			}
			all = append(all, sub...)
		}
		return all, nil
	default:
		return nil, fmt.Errorf("egraph: primitives differ inside a congruence justification")
	}
}

// FormatExplanation renders a proof one step per line, congruence
// sub-proofs indented. Each endpoint shows its as-inserted term; ex
// renders the class of an endpoint with no recorded origin.
func (g *EGraph) FormatExplanation(ex *Extractor, steps []ExplainStep) string {
	var b strings.Builder
	g.formatSteps(&b, ex, steps, 0)
	return b.String()
}

func (g *EGraph) formatSteps(b *strings.Builder, ex *Extractor, steps []ExplainStep, indent int) {
	pad := strings.Repeat("  ", indent)
	for _, st := range steps {
		lt := g.termForID(ex, st.Left)
		rt := g.termForID(ex, st.Right)
		reason := st.Reason.String()
		if st.Reason.Iter > 0 {
			reason = fmt.Sprintf("%s @ iteration %d", reason, st.Reason.Iter)
		}
		fmt.Fprintf(b, "%s%s = %s   [%s]\n", pad, lt, rt, reason)
		if note := g.classProvenanceNote(st.Right); note != "" {
			fmt.Fprintf(b, "%s  (%s %s)\n", pad, g.termForID(ex, st.Right), note)
		}
		for _, sub := range st.Children {
			g.formatSteps(b, ex, sub, indent+1)
		}
	}
}

// classProvenanceNote reports the provenance of the e-node whose insertion
// created class element id ("introduced by rule X at iteration N"), or ""
// when the element predates rule application or has no recorded creator.
func (g *EGraph) classProvenanceNote(id uint32) string {
	ref, ok := g.createdBy[id]
	if !ok {
		return ""
	}
	return g.provenanceNote(ref.fn, ref.row)
}

// termForID renders the term whose insertion created the e-class element:
// recursively through original (as-inserted) child identities, so each
// proof endpoint shows what that node denoted when it entered the graph —
// not the merged class's cheapest representative.
func (g *EGraph) termForID(ex *Extractor, id uint32) string {
	if term := g.originalTerm(id, 0); term != nil {
		return term.String()
	}
	// Fallback for elements without recorded origin: extract the class.
	var eq *Sort
	for _, f := range g.funcs {
		if f.IsConstructor() {
			eq = f.Out
			break
		}
	}
	if eq != nil {
		if term, _, err := ex.Extract(Value{Sort: eq, Bits: uint64(id)}); err == nil {
			return term.String()
		}
	}
	return fmt.Sprintf("class#%d", id)
}

// originalTerm reconstructs the as-inserted term of an element; nil when
// unknown or too deep.
func (g *EGraph) originalTerm(id uint32, depth int) *sexp.Node {
	if depth > maxExplainDepth {
		return nil
	}
	ref, ok := g.createdBy[id]
	if !ok {
		return nil
	}
	r := &g.tab(ref.fn).rows[ref.row]
	args := r.orig
	if args == nil {
		args = r.args
	}
	out := sexp.List(sexp.Symbol(ref.fn.Name))
	for _, a := range args {
		child := g.originalValueTerm(a, depth+1)
		if child == nil {
			return nil
		}
		out.List = append(out.List, child)
	}
	return out
}

func (g *EGraph) originalValueTerm(v Value, depth int) *sexp.Node {
	switch v.Sort.Kind {
	case KindI64:
		return sexp.Int(v.AsI64())
	case KindF64:
		return sexp.Float(v.AsF64())
	case KindString:
		return sexp.String(g.StringOf(v))
	case KindBool:
		if v.AsBool() {
			return sexp.Symbol("true")
		}
		return sexp.Symbol("false")
	case KindVec:
		out := sexp.List(sexp.Symbol("vec-of"))
		for _, e := range g.VecElems(v) {
			child := g.originalValueTerm(e, depth+1)
			if child == nil {
				return nil
			}
			out.List = append(out.List, child)
		}
		return out
	case KindEq:
		return g.originalTerm(uint32(v.Bits), depth)
	default:
		return nil
	}
}
