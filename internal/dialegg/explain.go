package dialegg

import (
	"fmt"
	"strings"

	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
)

// rewritePair records one operation whose extracted form differs from its
// original encoding.
type rewritePair struct {
	origOp *mlir.Operation
	// fn is the function of the node extraction chose for the operation's
	// e-class, and node that node's original identity, the proof endpoint.
	fn   *egraph.Function
	node egraph.Value
}

// collectRewrites walks the nodes ex chose from the block class blk
// against the original block (block-vector positions are stable through
// saturation) and returns every operation whose chosen node differs from
// the node translation inserted for it, by function or by any canonical
// child class, recursing into the regions of the region-carrying ops whose
// node is unchanged. It visits each chosen node once per position, so it
// takes time linear in the original function however much the extracted
// term shares.
func collectRewrites(ex *egraph.Extractor, g *egraph.EGraph, origBlock *mlir.Block, blk egraph.Value, tr *Translation, encs *Encodings) []rewritePair {
	var out []rewritePair
	f, args, _, ok := ex.ChosenNode(blk)
	if !ok || f.Name != "Blk" || len(args) != 1 {
		return out
	}
	elems := g.VecElems(args[0])
	if origBlock == nil || len(elems) != len(origBlock.Ops) {
		return out
	}
	for i, elem := range elems {
		op := origBlock.Ops[i]
		fn, opArgs, node, ok := ex.ChosenNode(elem)
		orig, known := tr.Nodes[op]
		if !ok || !known {
			continue
		}
		if !sameNode(g, fn, opArgs, orig) {
			out = append(out, rewritePair{origOp: op, fn: fn, node: node})
			continue
		}
		// Unchanged: descend into regions for nested rewrites.
		enc, ok := encs.LookupEgg(fn.Name)
		if !ok || enc.NumRegions == 0 || enc.NumRegions > len(op.Regions) {
			continue
		}
		regionStart := enc.NumOperands + enc.NumAttrs
		for ri := 0; ri < enc.NumRegions && regionStart+ri < len(opArgs); ri++ {
			rf, regArgs, _, ok := ex.ChosenNode(opArgs[regionStart+ri])
			if !ok || rf.Name != "Reg" || len(regArgs) != 1 {
				continue
			}
			for bi, nestedBlk := range g.VecElems(regArgs[0]) {
				if bi < len(op.Regions[ri].Blocks) {
					out = append(out, collectRewrites(ex, g, op.Regions[ri].Blocks[bi], nestedBlk, tr, encs)...)
				}
			}
		}
	}
	return out
}

// sameNode reports whether fn(args) is the node n, up to the
// canonicalization of its children.
func sameNode(g *egraph.EGraph, fn *egraph.Function, args []egraph.Value, n Node) bool {
	if fn != n.Fn || len(args) != len(n.Args) {
		return false
	}
	for i, a := range args {
		if g.Find(a) != g.Find(n.Args[i]) {
			return false
		}
	}
	return true
}

// extractionTopK bounds the rejected alternatives an extraction report
// lists per e-class.
const extractionTopK = 3

// explainExtractions produces one extraction-decision report per rewritten
// operation: why extraction chose the replacement term over the other
// candidates in its e-class, with cost breakdowns and the creating rule of
// every candidate node.
func explainExtractions(ex *egraph.Extractor, pairs []rewritePair) []string {
	var out []string
	for _, pair := range pairs {
		rep, err := ex.Report(pair.node, extractionTopK)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: (no extraction report: %v)", pair.origOp.Name, err))
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s rewritten to %s:\n", pair.origOp.Name, MLIROpName(pair.fn.Name))
		b.WriteString(rep.Format())
		out = append(out, b.String())
	}
	return out
}

// explainRewrites produces one rendered proof per rewritten operation: why
// the original e-node is equal to the extracted replacement. g must record
// explanations (EGraph.EnableExplanations).
func explainRewrites(g *egraph.EGraph, ex *egraph.Extractor, tr *Translation, pairs []rewritePair) []string {
	var out []string
	for _, pair := range pairs {
		orig, ok := tr.Nodes[pair.origOp]
		if !ok {
			continue
		}
		steps, err := g.Explain(orig.Out, pair.node)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: (no proof: %v)", pair.origOp.Name, err))
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s rewritten to %s:\n", pair.origOp.Name, MLIROpName(pair.fn.Name))
		b.WriteString(g.FormatExplanation(ex, steps))
		out = append(out, b.String())
	}
	return out
}
