package egraph

import (
	"fmt"
	"slices"
)

// PremiseStats holds one premise's match-phase counters: how often the
// premise was entered, how many candidate rows it tested, how many
// bindings survived it, which access path it used, and how often each of
// its columns was already bound on entry. Together these are the
// selectivity statistics a query planner needs to pick variable orders and
// index columns — the measured input for worst-case-optimal join
// compilation (ROADMAP: "Better Together").
//
// The counts are exact: with RunConfig.Selectivity set, the runner folds
// every match task's per-step counters into its rule's record
// (RuleStats.Premises), keyed by declared premise. Visits and matches are
// counted, executions follow from them, and the access path and bound
// columns come from the step's plan, so the counters are identical for
// every worker count.
type PremiseStats struct {
	// Index is the premise's declared position in the rule.
	Index int `json:"index"`
	// Kind is "table" for a TablePremise, "eval" for an EvalPremise.
	Kind string `json:"kind"`
	// Fn names the premise's table function or primitive.
	Fn string `json:"fn"`
	// Execs counts executions: binding contexts that reached this premise.
	// A query's first step runs once per top-level row it visits.
	Execs int64 `json:"execs"`
	// Visits counts candidate rows tested (scan iterations, index-probe
	// candidates, and direct lookups; 1 per exec for eval premises). A
	// rule's table-premise visits sum to its RowsScanned.
	Visits int64 `json:"visits"`
	// Matches counts bindings that passed the premise and continued.
	// Matches/Execs is the premise's fan-out; Matches/Visits its
	// selectivity (the fraction of tested rows that survive).
	Matches int64 `json:"matches"`
	// Lookups, IndexProbes, FullScans, and DeltaScans split Execs by
	// access path: fully-bound direct lookup, per-column index probe, full
	// table scan, and semi-naive delta-frontier scan.
	Lookups     int64 `json:"lookups"`
	IndexProbes int64 `json:"index_probes"`
	FullScans   int64 `json:"full_scans"`
	DeltaScans  int64 `json:"delta_scans"`
	// BoundCols counts, per column, how often the column was already
	// determined (bound variable or literal) when the premise executed.
	// For table premises the last entry is the output column. The planner
	// reads this as "which columns would an index on this table serve".
	BoundCols []int64 `json:"bound_cols,omitempty"`
}

// add folds another accumulation of the same premise into s.
func (s *PremiseStats) add(o PremiseStats) {
	s.Execs += o.Execs
	s.Visits += o.Visits
	s.Matches += o.Matches
	s.Lookups += o.Lookups
	s.IndexProbes += o.IndexProbes
	s.FullScans += o.FullScans
	s.DeltaScans += o.DeltaScans
	for i := range o.BoundCols {
		if i < len(s.BoundCols) {
			s.BoundCols[i] += o.BoundCols[i]
		}
	}
}

// check reports the first violated invariant of one premise of rule: it
// matches no more rows than it visited, and a table premise's access
// paths sum to its executions and no column is bound more often than the
// premise ran.
func (s PremiseStats) check(rule string) error {
	if s.Matches > s.Visits {
		return fmt.Errorf("rule %s premise %d: matches %d > visits %d", rule, s.Index, s.Matches, s.Visits)
	}
	if s.Kind != "table" {
		return nil
	}
	if paths := s.Lookups + s.IndexProbes + s.FullScans + s.DeltaScans; paths != s.Execs {
		return fmt.Errorf("rule %s premise %d: access paths %d != execs %d", rule, s.Index, paths, s.Execs)
	}
	for col, n := range s.BoundCols {
		if n > s.Execs {
			return fmt.Errorf("rule %s premise %d: column %d bound %d times > execs %d", rule, s.Index, col, n, s.Execs)
		}
	}
	return nil
}

// newPremises returns r's premise records, zeroed.
func newPremises(r *Rule) []PremiseStats {
	prem := make([]PremiseStats, len(r.Premises))
	for i, p := range r.Premises {
		ps := &prem[i]
		ps.Index = i
		switch p := p.(type) {
		case *TablePremise:
			ps.Kind = "table"
			ps.Fn = p.Fn.Name
			ps.BoundCols = make([]int64, len(p.Args)+1)
		case *EvalPremise:
			ps.Kind = "eval"
			ps.Fn = p.Prim.Name
		}
	}
	return prem
}

// clonePremises returns a copy of prem that shares no storage with it.
func clonePremises(prem []PremiseStats) []PremiseStats {
	cp := slices.Clone(prem)
	for i := range cp {
		cp[i].BoundCols = slices.Clone(cp[i].BoundCols)
	}
	return cp
}

// notePremises folds one query execution's step counters into its rule's
// premise records. A query's first step runs once per top-level row it
// visits, and a later step once per binding the step before it passed;
// each execution takes the step's access path with the step's bound
// columns.
func notePremises(prem []PremiseStats, steps []step, count []stepCount) {
	for k := range steps {
		st, c := &steps[k], count[k]
		execs := c.visits
		if k > 0 {
			execs = count[k-1].passes
		}
		ps := &prem[st.prem]
		ps.Execs += execs
		ps.Visits += c.visits
		ps.Matches += c.passes
		switch st.kind {
		case stepLookup:
			ps.Lookups += execs
		case stepProbe:
			ps.IndexProbes += execs
		case stepScan:
			ps.FullScans += execs
		case stepFrontier:
			ps.DeltaScans += execs
		}
		for _, key := range st.keys {
			ps.BoundCols[key.col] += execs
		}
	}
}
