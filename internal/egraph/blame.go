package egraph

import (
	"fmt"
	"sort"
)

// BlameRow is one rule's cost/benefit verdict from blame analysis: of the
// constructor rows the rule created, how many did extraction actually use?
// Rows divide into three classes — Extracted (the chosen representative of
// an e-class reachable from an extraction root), Rejected (in a reachable
// class, but a costlier alternative lost to the chosen node), and Waste
// (in a class extraction never visits; the row's existence bought nothing
// for this root set). Rejected rows are not free — they were candidates,
// which is what equality saturation pays for — but Waste rows are pure
// overhead: match time, apply time, and rebuild load with no path to the
// output. Seed rows (created before any rule ran) are grouped under the
// rule name "(seed)".
type BlameRow struct {
	Rule string `json:"rule"`
	// Rows is the rule's live extractable constructor rows
	// (Extracted + Rejected + Waste).
	Rows      int64 `json:"rows"`
	Extracted int64 `json:"extracted"`
	Rejected  int64 `json:"rejected"`
	Waste     int64 `json:"waste"`
	// AnalysisRows counts the rule's live rows outside the blame universe:
	// non-constructor tables (analysis/merge functions) and unextractable
	// constructors. They are bookkeeping, not candidate terms, so they are
	// excluded from the waste ratio.
	AnalysisRows int64 `json:"analysis_rows,omitempty"`
	// WasteRatio is Waste / Rows (0 when the rule created no extractable
	// rows).
	WasteRatio float64 `json:"waste_ratio"`
}

// Check reports the first violated invariant of one blame row: its three
// buckets partition its rows, and its waste ratio lies in [0, 1].
func (b BlameRow) Check() error {
	if b.Extracted+b.Rejected+b.Waste != b.Rows {
		return fmt.Errorf("blame %s: extracted %d + rejected %d + waste %d != rows %d",
			b.Rule, b.Extracted, b.Rejected, b.Waste, b.Rows)
	}
	if b.WasteRatio < 0 || b.WasteRatio > 1 {
		return fmt.Errorf("blame %s: waste ratio %g outside [0,1]", b.Rule, b.WasteRatio)
	}
	return nil
}

// Blame joins per-row provenance against this extractor's decisions and
// aggregates the verdicts per creating rule, sorted by rule name. The
// reachable set is the union over roots of the e-classes extraction visits
// (breadth-first through chosen children — the same walk Report renders);
// each live row is then classified by whether its class is reachable and
// whether it is the class's chosen node. The graph must be rebuilt, and
// provenance requires a journal to have been attached during the run
// (rows created without one blame to "(seed)").
func (e *Extractor) Blame(roots []Value) ([]BlameRow, error) {
	g := e.g

	// Phase 1: reachable classes and chosen rows, over all roots.
	for _, root := range roots {
		if root.Sort.Kind != KindEq {
			return nil, fmt.Errorf("egraph: blame analysis needs eq-sort roots, got %s", root.Sort)
		}
	}
	reachable := make(map[uint32]bool)
	chosen := make(map[nodeRef]bool)
	err := e.walk(roots, func(cls uint32, ref nodeRef, _ *row) {
		reachable[cls] = true
		chosen[ref] = true
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: classify every live row by provenance. Iteration is in
	// function-declaration and row order, and the aggregate is keyed by
	// rule name, so the result is deterministic for a fixed graph.
	byRule := make(map[string]*BlameRow)
	get := func(rule string) *BlameRow {
		if rule == "" {
			rule = "(seed)"
		}
		br := byRule[rule]
		if br == nil {
			br = &BlameRow{Rule: rule}
			byRule[rule] = br
		}
		return br
	}
	for _, f := range g.funcs {
		blamable := f.IsConstructor() && !f.Unextractable
		rows := g.tab(f).rows
		for ri := range rows {
			r := &rows[ri]
			if r.dead {
				continue
			}
			rule, _ := g.RowProvenance(f, ri)
			br := get(rule)
			if !blamable {
				br.AnalysisRows++
				continue
			}
			br.Rows++
			switch cls := g.uf.Find(uint32(g.Find(r.out).Bits)); {
			case chosen[nodeRef{fn: f, row: ri}]:
				br.Extracted++
			case reachable[cls]:
				br.Rejected++
			default:
				br.Waste++
			}
		}
	}

	out := make([]BlameRow, 0, len(byRule))
	for _, br := range byRule {
		if br.Rows > 0 {
			br.WasteRatio = float64(br.Waste) / float64(br.Rows)
		}
		out = append(out, *br)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out, nil
}

// MergeBlame folds src into dst by rule name, re-sorting and recomputing
// ratios — the aggregation CLIs use across module functions or runs.
func MergeBlame(dst, src []BlameRow) []BlameRow {
	if len(src) == 0 {
		return dst
	}
	byName := make(map[string]int, len(dst))
	for i := range dst {
		byName[dst[i].Rule] = i
	}
	for _, s := range src {
		i, ok := byName[s.Rule]
		if !ok {
			byName[s.Rule] = len(dst)
			dst = append(dst, s)
			continue
		}
		d := &dst[i]
		d.Rows += s.Rows
		d.Extracted += s.Extracted
		d.Rejected += s.Rejected
		d.Waste += s.Waste
		d.AnalysisRows += s.AnalysisRows
	}
	for i := range dst {
		if dst[i].Rows > 0 {
			dst[i].WasteRatio = float64(dst[i].Waste) / float64(dst[i].Rows)
		} else {
			dst[i].WasteRatio = 0
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].Rule < dst[j].Rule })
	return dst
}
