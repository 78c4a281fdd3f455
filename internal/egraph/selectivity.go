package egraph

import "fmt"

// PremiseStats holds one premise's sampled match-phase counters: how often
// the premise was entered, how many candidate rows it tested, how many
// bindings survived it, which access path it used, and how often each of
// its columns was already bound on entry. Together these are the
// selectivity statistics a query planner needs to pick variable orders and
// index columns — the measured input for worst-case-optimal join
// compilation (ROADMAP: "Better Together").
//
// Counters are collected under sampling (RunConfig.ProfileSample): every
// N-th top-level row of each rule's scan opens a traced sub-tree, and every
// premise execution inside it is counted. Sampling is keyed to row indices,
// not shards, so the counters are byte-identical for every worker count.
type PremiseStats struct {
	// Index is the premise's declared position in the rule.
	Index int `json:"index"`
	// Kind is "table" for a TablePremise, "eval" for an EvalPremise.
	Kind string `json:"kind"`
	// Fn names the premise's table function or primitive.
	Fn string `json:"fn"`
	// Execs counts executions: binding contexts that reached this premise.
	Execs int64 `json:"execs"`
	// Visits counts candidate rows tested (scan iterations, index-probe
	// candidates, and direct lookups; 1 per exec for eval premises).
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

// RuleSelectivity aggregates one rule's sampled premise statistics across
// a run (RunReport.Selectivity).
type RuleSelectivity struct {
	Rule string `json:"rule"`
	// SampleEvery is the sampling period the counters were collected
	// under (RunConfig.ProfileSample); 1 means every top-level row.
	SampleEvery int `json:"sample_every"`
	// SampledRoots counts the top-level rows that opened a traced
	// sub-tree.
	SampledRoots int64 `json:"sampled_roots"`
	// Premises holds the counters in declared premise order. Semi-naive
	// sub-queries reorder evaluation, but counters are keyed by declared
	// index, so each premise accumulates its own work wherever it runs.
	Premises []PremiseStats `json:"premises"`
}

// Check reports the first violated invariant of one rule's sampled
// counters: no premise matches more rows than it visited, and a table
// premise's access paths sum to its executions.
func (rs RuleSelectivity) Check() error {
	if rs.SampleEvery < 0 || rs.SampledRoots < 0 {
		return fmt.Errorf("selectivity %s: negative sampling fields", rs.Rule)
	}
	for _, ps := range rs.Premises {
		if ps.Matches > ps.Visits {
			return fmt.Errorf("selectivity %s premise %d: matches %d > visits %d", rs.Rule, ps.Index, ps.Matches, ps.Visits)
		}
		paths := ps.Lookups + ps.IndexProbes + ps.FullScans + ps.DeltaScans
		if ps.Kind == "table" && paths != ps.Execs {
			return fmt.Errorf("selectivity %s premise %d: access paths %d != execs %d", rs.Rule, ps.Index, paths, ps.Execs)
		}
	}
	return nil
}

// newRuleSelectivity builds the descriptor skeleton for one rule.
func newRuleSelectivity(r *Rule, every int) RuleSelectivity {
	rs := RuleSelectivity{Rule: r.Name, SampleEvery: every, Premises: make([]PremiseStats, len(r.Premises))}
	for i, p := range r.Premises {
		ps := &rs.Premises[i]
		ps.Index = i
		switch p := p.(type) {
		case *TablePremise:
			ps.Kind = "table"
			ps.Fn = p.Fn.Name
			ps.BoundCols = make([]int64, len(p.Args)+1)
		case *EvalPremise:
			ps.Kind = "eval"
			ps.Fn = p.Prim.Name
		default:
			ps.Kind = fmt.Sprintf("%T", p)
		}
	}
	return rs
}

// MergeSelectivity folds src into dst by rule name, preserving dst's order
// and appending unseen rules — the same contract as MergeRuleStats, used
// when aggregating reports across schedule items or module functions.
func MergeSelectivity(dst, src []RuleSelectivity) []RuleSelectivity {
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
			cp := s
			cp.Premises = append([]PremiseStats(nil), s.Premises...)
			for j := range cp.Premises {
				cp.Premises[j].BoundCols = append([]int64(nil), s.Premises[j].BoundCols...)
			}
			dst = append(dst, cp)
			continue
		}
		d := &dst[i]
		d.SampledRoots += s.SampledRoots
		if d.SampleEvery == 0 {
			d.SampleEvery = s.SampleEvery
		}
		for j := range s.Premises {
			if j < len(d.Premises) {
				d.Premises[j].add(s.Premises[j])
			} else {
				ps := s.Premises[j]
				ps.BoundCols = append([]int64(nil), ps.BoundCols...)
				d.Premises = append(d.Premises, ps)
			}
		}
	}
	return dst
}

// selSink collects one match task's sampled selectivity counters. Sinks
// are task-private during the match phase (no shared-state traffic on the
// hot path) and folded into the per-rule aggregate serially after the
// pool drains, so the aggregate is independent of worker scheduling.
type selSink struct {
	every int
	roots int64
	prem  []PremiseStats
}

// newSelSink allocates a sink shaped like r's premises.
func newSelSink(r *Rule, every int) *selSink {
	s := &selSink{every: every, prem: make([]PremiseStats, len(r.Premises))}
	for i, p := range r.Premises {
		if tp, ok := p.(*TablePremise); ok {
			s.prem[i].BoundCols = make([]int64, len(tp.Args)+1)
		}
	}
	return s
}

// noteEntry records one traced execution of step st: for a table step,
// its access path and which columns were bound on entry (fixed by the
// plan).
func (m *matchRun) noteEntry(st *step) {
	ps := &m.sel.prem[st.prem]
	ps.Execs++
	switch st.kind {
	case stepEval:
		return
	case stepLookup:
		ps.Lookups++
	case stepProbe:
		ps.IndexProbes++
	case stepScan:
		ps.FullScans++
	case stepFrontier:
		ps.DeltaScans++
	}
	for _, k := range st.keys {
		ps.BoundCols[k.col]++
	}
}
