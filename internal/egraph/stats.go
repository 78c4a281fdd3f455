package egraph

import (
	"fmt"
	"strings"
	"time"
)

// RuleStats accumulates one rule's observability counters across a
// saturation run; every run reports one per rule (RunReport.Rules). This
// is the per-rule accounting egg's reports made standard: it answers
// "which rule is the run spending its time and its matches on", which is
// what makes rule sets tunable.
type RuleStats struct {
	Name string `json:"name"`
	// Matched counts matches the match phase enumerated for the rule
	// (before any MatchLimit truncation), summed over iterations. It
	// includes the old matches a semi-naive full-scan fallback re-finds,
	// so it depends on the plan the hybrid planner picked.
	Matched int64 `json:"matched"`
	// Applied counts matches whose actions actually ran: those within the
	// caps, less the re-found old matches of a semi-naive full-scan
	// fallback, which are skipped. Applied <= Matched always.
	Applied int64 `json:"applied"`
	// Noops counts applied matches that changed nothing: no effective
	// union, no new row, no merge-value change. In semi-naive mode these
	// stay near zero (a scheduler's debt pass re-applies old matches); in
	// naive mode they dominate late iterations.
	Noops int64 `json:"noops"`
	// RowsScanned totals the rule's match-phase row visits.
	RowsScanned int64 `json:"rows_scanned"`
	// DeltaQueries counts delta-restricted sub-queries the semi-naive
	// planner ran for the rule; FullScans counts full-query plans (every
	// naive iteration, each run's first iteration, and hybrid fallbacks).
	DeltaQueries int64 `json:"delta_queries"`
	FullScans    int64 `json:"full_scans"`
	// MatchTime sums the rule's match-task durations (CPU time across
	// workers, not wall time); ApplyTime sums its apply batches.
	MatchTime time.Duration `json:"match_ns"`
	ApplyTime time.Duration `json:"apply_ns"`
	// RowsCreated and UnionsMade attribute e-graph growth to the rule:
	// table rows added and effective unions performed while its apply
	// batches ran (rebuild's congruence repairs excluded). This is the
	// "benefit" half of per-rule cost/benefit accounting — a rule with
	// high RowsCreated and low extraction usefulness is paying for growth
	// nothing consumes.
	RowsCreated int64  `json:"rows_created"`
	UnionsMade  uint64 `json:"unions_made"`
	// Scheduler counters (zero without a RunConfig.Scheduler): Throttled
	// counts iterations a ban skipped the rule, MatchLimited iterations a
	// scheduler cap actually truncated the rule's matches, and
	// SchedDropped the matches those truncations discarded.
	Throttled    int64 `json:"throttled,omitempty"`
	MatchLimited int64 `json:"match_limited,omitempty"`
	SchedDropped int64 `json:"sched_dropped,omitempty"`
	// Premises holds the rule's premise counters in declared premise
	// order when RunConfig.Selectivity was set (nil otherwise). Semi-naive
	// sub-queries reorder evaluation, but counters are keyed by declared
	// index, so each premise accumulates its own work wherever it runs.
	Premises []PremiseStats `json:"premises,omitempty"`
}

// add folds another accumulation of the same rule into s. Premises s
// lacks are copied in, so s never shares o's storage.
func (s *RuleStats) add(o RuleStats) {
	s.Matched += o.Matched
	s.Applied += o.Applied
	s.Noops += o.Noops
	s.RowsScanned += o.RowsScanned
	s.DeltaQueries += o.DeltaQueries
	s.FullScans += o.FullScans
	s.MatchTime += o.MatchTime
	s.ApplyTime += o.ApplyTime
	s.RowsCreated += o.RowsCreated
	s.UnionsMade += o.UnionsMade
	s.Throttled += o.Throttled
	s.MatchLimited += o.MatchLimited
	s.SchedDropped += o.SchedDropped
	for j := range o.Premises {
		if j == len(s.Premises) {
			s.Premises = append(s.Premises, clonePremises(o.Premises[j:])...)
			break
		}
		s.Premises[j].add(o.Premises[j])
	}
}

// Check reports the first violated invariant of one rule's record: every
// counter and duration is non-negative, applied <= matched, noops <=
// applied, dropped matches imply an iteration a cap truncated, every
// premise passes its own check, and a record with premises has
// table-premise visits that sum to its rows scanned. profile.Lint and
// egg-lint's stats check both hold records to it.
func (s RuleStats) Check() error {
	if s.Matched < 0 || s.Applied < 0 || s.Noops < 0 || s.RowsScanned < 0 ||
		s.DeltaQueries < 0 || s.FullScans < 0 || s.MatchTime < 0 || s.ApplyTime < 0 ||
		s.RowsCreated < 0 || s.Throttled < 0 || s.MatchLimited < 0 || s.SchedDropped < 0 {
		return fmt.Errorf("rule %s: negative counter", s.Name)
	}
	if s.Applied > s.Matched {
		return fmt.Errorf("rule %s: applied %d > matched %d", s.Name, s.Applied, s.Matched)
	}
	if s.Noops > s.Applied {
		return fmt.Errorf("rule %s: noops %d > applied %d", s.Name, s.Noops, s.Applied)
	}
	if s.SchedDropped > 0 && s.MatchLimited == 0 {
		return fmt.Errorf("rule %s: sched_dropped %d without a match_limited iteration", s.Name, s.SchedDropped)
	}
	var visits int64
	for _, ps := range s.Premises {
		if err := ps.check(s.Name); err != nil {
			return err
		}
		if ps.Kind == "table" {
			visits += ps.Visits
		}
	}
	if s.Premises != nil && visits != s.RowsScanned {
		return fmt.Errorf("rule %s: table-premise visits %d != rows_scanned %d", s.Name, visits, s.RowsScanned)
	}
	return nil
}

// MergeRuleStats folds src into dst by rule name, preserving dst's order
// and appending rules dst has not seen; into an empty dst it copies src
// as it is. Premises are copied as they enter dst, so folding more into
// the result never writes through to src. Used when aggregating reports
// across schedule items or across the functions of a module.
func MergeRuleStats(dst, src []RuleStats) []RuleStats {
	if len(dst) == 0 {
		dst = append(dst, src...)
		for i := range dst {
			dst[i].Premises = clonePremises(dst[i].Premises)
		}
		return dst
	}
	if len(src) == 0 {
		return dst
	}
	byName := make(map[string]int, len(dst))
	for i := range dst {
		byName[dst[i].Name] = i
	}
	for _, s := range src {
		i, ok := byName[s.Name]
		if !ok {
			i = len(dst)
			byName[s.Name] = i
			dst = append(dst, RuleStats{Name: s.Name})
		}
		dst[i].add(s)
	}
	return dst
}

// Merge folds another run's report into r: durations, row counts, and
// iteration counts are summed, per-iteration and per-rule stats are
// carried over (rules merged by name), and the final-state fields (nodes,
// classes, stop reason) take o's values. Both the egglog scheduler and
// the DialEgg module driver aggregate reports this way, so nothing a
// sub-run measured is dropped from the total.
func (r *RunReport) Merge(o RunReport) {
	r.Iterations += o.Iterations
	r.Elapsed += o.Elapsed
	r.MatchTime += o.MatchTime
	r.ApplyTime += o.ApplyTime
	r.RebuildTime += o.RebuildTime
	r.RowsScanned += o.RowsScanned
	r.PerIter = append(r.PerIter, o.PerIter...)
	r.Rules = MergeRuleStats(r.Rules, o.Rules)
	r.Nodes = o.Nodes
	r.Classes = o.Classes
	r.Stop = o.Stop
	if o.Workers != 0 {
		r.Workers = o.Workers
	}
	if r.Err == nil {
		r.Err = o.Err
	}
}

// FormatIterStats renders one line per iteration record, indented under
// the CLIs' --stats run summary.
func FormatIterStats(iters []IterStats) string {
	var b strings.Builder
	for i, it := range iters {
		mode := "full"
		if it.SemiNaive {
			mode = "delta"
		}
		fmt.Fprintf(&b, "  iter %d (%s): %d matches, %d unions, %d nodes, %d delta rows, %d scanned, match %v, apply %v, rebuild %v (%d passes)\n",
			i+1, mode, it.Matches, it.Unions, it.Nodes, it.DeltaRows, it.RowsScanned, it.MatchTime, it.ApplyTime, it.RebuildTime, it.RebuildPasses)
	}
	return b.String()
}

// FormatRuleStats renders per-rule metrics as an aligned text table in
// rule-declaration order (the CLIs' --stats output). Times are printed in
// milliseconds with enough precision for CI-scale runs. The scheduler
// columns (thr/cap) appear only when a scheduler actually acted, so
// unscheduled runs keep the historic table shape.
func FormatRuleStats(rules []RuleStats) string {
	sched := false
	for _, r := range rules {
		if r.Throttled != 0 || r.MatchLimited != 0 {
			sched = true
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %9s %9s %7s %10s %6s %5s %8s %8s %10s %10s",
		"rule", "matched", "applied", "noops", "rows", "delta", "full", "created", "unions", "match(ms)", "apply(ms)")
	if sched {
		fmt.Fprintf(&b, " %5s %5s", "thr", "cap")
	}
	b.WriteByte('\n')
	for _, r := range rules {
		fmt.Fprintf(&b, "%-32s %9d %9d %7d %10d %6d %5d %8d %8d %10.3f %10.3f",
			r.Name, r.Matched, r.Applied, r.Noops, r.RowsScanned,
			r.DeltaQueries, r.FullScans, r.RowsCreated, r.UnionsMade,
			float64(r.MatchTime.Nanoseconds())/1e6,
			float64(r.ApplyTime.Nanoseconds())/1e6)
		if sched {
			fmt.Fprintf(&b, " %5d %5d", r.Throttled, r.MatchLimited)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
