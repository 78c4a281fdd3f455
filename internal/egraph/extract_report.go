package egraph

import (
	"fmt"
	"sort"
	"strings"
)

// ChildCost is one child e-class's contribution to a node's total cost.
type ChildCost struct {
	Class string `json:"class"`
	Cost  int64  `json:"cost"`
}

// NodeChoice describes one candidate e-node considered during extraction:
// its rendered term (with cost-optimal children), its cost decomposition,
// and its provenance.
type NodeChoice struct {
	Term string `json:"term"`
	Fn   string `json:"fn"`
	// Cost is the node's total extraction cost; Base the constructor's own
	// share (the default cost, or the unstable-cost override when Override
	// is set); Children the per-child-class remainder.
	Cost     int64       `json:"cost"`
	Base     int64       `json:"base"`
	Override bool        `json:"override,omitempty"`
	Children []ChildCost `json:"children,omitempty"`
	// Rule and Iter are the node's provenance ("" / 0 for seed nodes).
	Rule string `json:"rule,omitempty"`
	Iter int    `json:"iter,omitempty"`
}

// ClassReport explains extraction's decision for one e-class: the chosen
// node and the top-k rejected alternatives, costliest last.
type ClassReport struct {
	Class      string       `json:"class"`
	Candidates int          `json:"candidates"`
	Chosen     NodeChoice   `json:"chosen"`
	Rejected   []NodeChoice `json:"rejected,omitempty"`
}

// ExtractionReport explains the full extraction decision for one root:
// every e-class reachable through chosen children, in breadth-first order
// from the root.
type ExtractionReport struct {
	Root     string        `json:"root"`
	RootCost int64         `json:"root_cost"`
	Classes  []ClassReport `json:"classes"`
}

// Report explains why extraction chose what it chose for root's class:
// per reachable class (through chosen children, breadth-first), the
// winning node with its cost broken down by child class, and up to topK
// rejected alternatives with theirs. Costs reflect the active model —
// constructor defaults plus any unstable-cost overrides.
func (e *Extractor) Report(root Value, topK int) (*ExtractionReport, error) {
	if root.Sort.Kind != KindEq {
		return nil, fmt.Errorf("egraph: extraction report needs an eq-sort root")
	}
	term, cost, err := e.Extract(root)
	if err != nil {
		return nil, err
	}
	rep := &ExtractionReport{Root: term.String(), RootCost: cost}
	err = e.walk([]Value{root}, func(cls uint32, chosen nodeRef, _ *row) {
		rep.Classes = append(rep.Classes, e.classReport(cls, chosen, topK))
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// classReport builds one class's decision record.
func (e *Extractor) classReport(cls uint32, chosen nodeRef, topK int) ClassReport {
	cr := ClassReport{Class: fmt.Sprintf("#%d", cls)}
	var rejected []NodeChoice
	e.eachNode(cls, func(f *Function, ri int, r *row) {
		nc, ok := e.nodeChoice(f, ri, r)
		if !ok {
			return // some child class is unextractable
		}
		cr.Candidates++
		if f == chosen.fn && ri == chosen.row {
			cr.Chosen = nc
		} else {
			rejected = append(rejected, nc)
		}
	})
	sort.Slice(rejected, func(i, j int) bool {
		if rejected[i].Cost != rejected[j].Cost {
			return rejected[i].Cost < rejected[j].Cost
		}
		return rejected[i].Term < rejected[j].Term
	})
	if topK >= 0 && len(rejected) > topK {
		rejected = rejected[:topK]
	}
	cr.Rejected = rejected
	return cr
}

// nodeChoice renders the candidate node at row ri of f with its cost
// decomposition and provenance; false when a child class has no
// extractable term.
func (e *Extractor) nodeChoice(f *Function, ri int, r *row) (NodeChoice, bool) {
	g := e.g
	total, ok := e.nodeCost(f, r)
	if !ok {
		return NodeChoice{}, false
	}
	term, err := e.node(f, r)
	if err != nil {
		return NodeChoice{}, false
	}
	nc := NodeChoice{Term: term.String(), Fn: f.Name, Cost: total}
	nc.Base, nc.Override = e.baseCost(f, r)
	for _, a := range r.args {
		for _, c := range g.childClasses(a) {
			nc.Children = append(nc.Children, ChildCost{Class: fmt.Sprintf("#%d", c), Cost: e.bestCost[c]})
		}
	}
	nc.Rule, nc.Iter = g.RowProvenance(f, ri)
	return nc, true
}

// Format renders the report as indented text.
func (r *ExtractionReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "extraction: %s   (cost %d)\n", r.Root, r.RootCost)
	for _, cr := range r.Classes {
		fmt.Fprintf(&b, "class %s: %d candidate(s)\n", cr.Class, cr.Candidates)
		writeChoice(&b, "chosen ", cr.Chosen)
		for _, rej := range cr.Rejected {
			writeChoice(&b, "reject ", rej)
		}
	}
	return b.String()
}

func writeChoice(b *strings.Builder, tag string, nc NodeChoice) {
	fmt.Fprintf(b, "  %s %s   cost %d = base %d", tag, nc.Term, nc.Cost, nc.Base)
	if nc.Override {
		fmt.Fprintf(b, " (unstable-cost)")
	}
	for _, c := range nc.Children {
		fmt.Fprintf(b, " + %s:%d", c.Class, c.Cost)
	}
	if nc.Rule != "" {
		fmt.Fprintf(b, "   [introduced by rule %s at iteration %d]", nc.Rule, nc.Iter)
	}
	fmt.Fprintln(b)
}
