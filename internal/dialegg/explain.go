package dialegg

import (
	"fmt"
	"strings"

	"dialegg/internal/egglog"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/sexp"
)

// rewritePair records one operation whose extracted form differs from its
// original encoding.
type rewritePair struct {
	origOp *mlir.Operation
	term   *sexp.Node
}

// collectRewrites zips the extracted root block term against the original
// function body (block-vector positions are stable through saturation) and
// returns every pair whose term head differs from the original op's
// encoding, recursing into the regions of encoded region-carrying ops.
func collectRewrites(origBlock *mlir.Block, blkTerm *sexp.Node, tr *Translation, encs *Encodings) []rewritePair {
	var out []rewritePair
	if blkTerm.Head() != "Blk" || len(blkTerm.Args()) != 1 {
		return out
	}
	elems := blkTerm.Args()[0].Args()
	if origBlock == nil || len(elems) != len(origBlock.Ops) {
		return out
	}
	for i, elem := range elems {
		op := origBlock.Ops[i]
		head := elem.Head()
		if head == "Value" {
			continue // opaque: never rewritten
		}
		if head != EggOpName(op.Name) && !strings.HasPrefix(head, EggOpName(op.Name)+"_") {
			out = append(out, rewritePair{origOp: op, term: elem})
			continue
		}
		// Same op kind: descend into regions for nested rewrites.
		enc, ok := encs.LookupEgg(head)
		if !ok || enc.NumRegions == 0 || enc.NumRegions > len(op.Regions) {
			continue
		}
		regionStart := enc.NumOperands + enc.NumAttrs
		args := elem.Args()
		for ri := 0; ri < enc.NumRegions && regionStart+ri < len(args); ri++ {
			regTerm := args[regionStart+ri]
			if regTerm.Head() != "Reg" || len(regTerm.Args()) != 1 {
				continue
			}
			for bi, nestedBlk := range regTerm.Args()[0].Args() {
				if bi < len(op.Regions[ri].Blocks) {
					out = append(out, collectRewrites(op.Regions[ri].Blocks[bi], nestedBlk, tr, encs)...)
				}
			}
		}
	}
	return out
}

// extractionTopK bounds the rejected alternatives an extraction report
// lists per e-class.
const extractionTopK = 3

// explainExtractions produces one extraction-decision report per rewritten
// operation: why extraction chose the replacement term over the other
// candidates in its e-class, with cost breakdowns and the creating rule of
// every candidate node.
func explainExtractions(p *egglog.Program, ex *egraph.Extractor, pairs []rewritePair) []string {
	var out []string
	for _, pair := range pairs {
		v, err := p.EvalExpr(pair.term)
		var rep *egraph.ExtractionReport
		if err == nil {
			rep, err = ex.Report(v, extractionTopK)
		}
		if err != nil {
			out = append(out, fmt.Sprintf("%s: (no extraction report: %v)", pair.origOp.Name, err))
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s rewritten to %s:\n", pair.origOp.Name, MLIROpName(pair.term.Head()))
		b.WriteString(rep.Format())
		out = append(out, b.String())
	}
	return out
}

// explainRewrites produces one rendered proof per rewritten operation: why
// the original e-node is equal to the extracted replacement. p must have
// been created with explanations enabled.
func explainRewrites(p *egglog.Program, ex *egraph.Extractor, tr *Translation, pairs []rewritePair) []string {
	g := p.Graph()
	var out []string
	for _, pair := range pairs {
		letName, ok := tr.OpLets[pair.origOp]
		if !ok {
			continue
		}
		origVal, ok := p.LookupLet(letName)
		if !ok {
			continue
		}
		newVal, err := p.EvalExprRaw(pair.term)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: (no proof: %v)", pair.origOp.Name, err))
			continue
		}
		steps, err := g.Explain(origVal, newVal)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: (no proof: %v)", pair.origOp.Name, err))
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s rewritten to %s:\n", pair.origOp.Name, MLIROpName(pair.term.Head()))
		b.WriteString(g.FormatExplanation(ex, steps))
		out = append(out, b.String())
	}
	return out
}
