package egraph

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteDot renders the e-graph in Graphviz DOT format, in the style of
// egg's visualizations and the paper's Figure 1: one cluster per e-class
// containing its e-nodes, with edges from e-node argument slots to child
// e-classes. Primitive arguments are inlined into the node label.
func (g *EGraph) WriteDot(w io.Writer) error {
	type node struct {
		fn  *Function
		row int
	}
	classes := make(map[uint32][]node)
	for _, f := range g.funcs {
		if !f.IsConstructor() {
			continue
		}
		rows := g.tab(f).rows
		for ri := range rows {
			r := &rows[ri]
			if r.dead {
				continue
			}
			cls := g.uf.Find(uint32(g.Find(r.out).Bits))
			classes[cls] = append(classes[cls], node{fn: f, row: ri})
		}
	}
	ids := make([]uint32, 0, len(classes))
	for c := range classes {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	if _, err := fmt.Fprintln(w, "digraph egraph {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  compound=true")
	fmt.Fprintln(w, "  node [shape=record, fontname=\"monospace\"]")

	nodeName := func(n node) string { return fmt.Sprintf("n_%s_%d", n.fn.Name, n.row) }

	for _, cls := range ids {
		fmt.Fprintf(w, "  subgraph cluster_%d {\n", cls)
		fmt.Fprintf(w, "    label=\"class %d\"\n    style=dashed\n", cls)
		for _, n := range classes[cls] {
			label := n.fn.Name
			for _, a := range g.tab(n.fn).argsOf(n.row) {
				if a.kind != KindEq && a.kind != KindVec {
					label += " " + g.valueLabel(a)
				}
			}
			lbl := escapeDotLabel(label)
			// Provenance on a second label line for nodes made by rules;
			// seed nodes (provRule 0) keep their plain label. The \n is a
			// DOT escape, appended after escaping so it stays a line break.
			if rule, iter := g.RowProvenance(n.fn, n.row); rule != "" {
				lbl += `\n` + escapeDotLabel(fmt.Sprintf("%s @ iter %d", rule, iter))
			}
			fmt.Fprintf(w, "    %s [label=\"%s\"]\n", nodeName(n), lbl)
		}
		fmt.Fprintln(w, "  }")
	}

	// Edges: from each node to the representative node of each child class
	// (DOT edges to clusters need an anchor node; use the class's first
	// node with lhead).
	anchor := func(cls uint32) (string, bool) {
		ns := classes[cls]
		if len(ns) == 0 {
			return "", false
		}
		return nodeName(ns[0]), true
	}
	for _, cls := range ids {
		for _, n := range classes[cls] {
			for _, a := range g.tab(n.fn).argsOf(n.row) {
				for _, childCls := range g.childClasses(a) {
					if target, ok := anchor(childCls); ok {
						fmt.Fprintf(w, "  %s -> %s [lhead=cluster_%d]\n", nodeName(n), target, childCls)
					}
				}
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// childClasses lists the canonical e-class IDs referenced by a value
// (direct for eq-sorts, transitively through vectors).
func (g *EGraph) childClasses(v Value) []uint32 {
	switch v.kind {
	case KindEq:
		return []uint32{g.uf.Find(uint32(v.Bits))}
	case KindVec:
		var out []uint32
		for _, e := range g.VecElems(v) {
			out = append(out, g.childClasses(e)...)
		}
		return out
	default:
		return nil
	}
}

// escapeDotLabel escapes quotes and backslashes for a double-quoted DOT
// label.
func escapeDotLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// valueLabel renders a primitive value for DOT labels.
func (g *EGraph) valueLabel(v Value) string {
	switch v.kind {
	case KindI64:
		return fmt.Sprintf("%d", v.AsI64())
	case KindF64:
		return fmt.Sprintf("%g", v.AsF64())
	case KindString:
		return fmt.Sprintf("%q", g.StringOf(v))
	case KindBool:
		return fmt.Sprintf("%t", v.AsBool())
	default:
		return "·"
	}
}
