// Package profile is the saturation profiler's data model: a canonical,
// deterministic artifact that aggregates per-rule cost/benefit accounting,
// extraction blame analysis, and sampled premise-selectivity statistics
// from one or more saturation runs.
//
// The artifact is the contract between the engine's observability layer
// and its future consumers — the query-plan compiler picks variable orders
// from the selectivity section, the scheduler autotuner throttles rules by
// their cost/benefit rows, and the perf-regression observatory diffs
// artifacts across commits. Three producers emit it: the `-profile` flag
// on egg-opt/egglog (live runs), `egg-prof build` (offline, from journals
// and stats JSON), and egg-serve's /debugz/profilez (live aggregate).
//
// Everything except the Timing section is deterministic: for a fixed
// workload, seed, and match mode, the canonical form (Canonical, which
// strips Timing) is byte-identical at every worker and shard count. Wall
// time can never satisfy that, so it is quarantined in Timing and excluded
// from canonical comparisons.
package profile

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dialegg/internal/egraph"
	"dialegg/internal/obs/journal"
)

// SchemaV1 identifies the artifact format; Lint rejects anything else.
const SchemaV1 = "dialegg-profile/v1"

// SeedRule is the pseudo-rule name growth with no rule provenance (initial
// translation inserts) is attributed to.
const SeedRule = "(seed)"

// RuleProfile is one rule's deterministic cost/benefit counters. The
// rule's wall times live in Timing.Rules, not here — see the package
// comment.
type RuleProfile struct {
	Name string `json:"name"`
	// Matched/Applied/Noops count the rule's matches found, applied, and
	// applied-without-effect (see egraph.RuleStats). Journal-derived
	// profiles only observe applied batches, so there Matched == Applied.
	Matched int64 `json:"matched"`
	Applied int64 `json:"applied"`
	Noops   int64 `json:"noops"`
	// RowsScanned totals the rule's match-phase row visits (0 in
	// journal-derived profiles; the journal records mutations, not reads).
	RowsScanned int64 `json:"rows_scanned"`
	// DeltaQueries/FullScans count the rule's semi-naive sub-query and
	// full-scan plans.
	DeltaQueries int64 `json:"delta_queries"`
	FullScans    int64 `json:"full_scans"`
	// RowsCreated and UnionsMade attribute e-graph growth to the rule —
	// from live per-batch deltas (RuleMetrics) or from journal per-row
	// provenance, which agree by construction.
	RowsCreated int64  `json:"rows_created"`
	UnionsMade  uint64 `json:"unions_made"`
	// Scheduler counters (zero when the run had no scheduler, and in
	// journal-derived profiles, which observe effects, not decisions):
	// iterations the rule was temporarily throttled, permanently banned,
	// or cap-truncated, and the matches those truncations dropped.
	Throttled    int64 `json:"throttled,omitempty"`
	Banned       int64 `json:"banned,omitempty"`
	MatchLimited int64 `json:"match_limited,omitempty"`
	SchedDropped int64 `json:"sched_dropped,omitempty"`
}

// RuleTiming is one rule's wall-time share (non-deterministic section).
type RuleTiming struct {
	Name    string `json:"name"`
	MatchNS int64  `json:"match_ns"`
	ApplyNS int64  `json:"apply_ns"`
}

// Timing is the artifact's only non-deterministic section: wall times and
// the worker count they were measured under. Canonical() strips it.
type Timing struct {
	Workers   int          `json:"workers,omitempty"`
	ElapsedNS int64        `json:"elapsed_ns"`
	MatchNS   int64        `json:"match_ns"`
	ApplyNS   int64        `json:"apply_ns"`
	RebuildNS int64        `json:"rebuild_ns"`
	Rules     []RuleTiming `json:"rules,omitempty"`
}

// Profile is the canonical saturation-profile artifact.
type Profile struct {
	Schema string `json:"schema"`
	// Sources labels the inputs the profile aggregates (file paths for
	// egg-prof, "live" for in-process producers).
	Sources []string `json:"sources,omitempty"`
	// Runs counts saturation runs folded in; Iterations their iterations.
	Runs       int `json:"runs"`
	Iterations int `json:"iterations"`
	// Rules holds per-rule counters sorted by name.
	Rules []RuleProfile `json:"rules,omitempty"`
	// Selectivity holds sampled premise statistics sorted by rule name
	// (egraph.RuleSelectivity), when the producing run set ProfileSample.
	Selectivity []egraph.RuleSelectivity `json:"selectivity,omitempty"`
	// Blame holds extraction blame rows sorted by rule name
	// (egraph.BlameRow), when an extraction decision was joined in.
	Blame []egraph.BlameRow `json:"blame,omitempty"`
	// Timing is the non-deterministic wall-time section; nil in
	// journal-derived and canonicalized profiles.
	Timing *Timing `json:"timing,omitempty"`
}

// New returns an empty v1 profile.
func New() *Profile { return &Profile{Schema: SchemaV1} }

// normalize sorts every section into canonical order.
func (p *Profile) normalize() {
	sort.Slice(p.Rules, func(i, j int) bool { return p.Rules[i].Name < p.Rules[j].Name })
	sort.Slice(p.Selectivity, func(i, j int) bool { return p.Selectivity[i].Rule < p.Selectivity[j].Rule })
	sort.Slice(p.Blame, func(i, j int) bool { return p.Blame[i].Rule < p.Blame[j].Rule })
	if p.Timing != nil {
		sort.Slice(p.Timing.Rules, func(i, j int) bool { return p.Timing.Rules[i].Name < p.Timing.Rules[j].Name })
	}
}

// FromRunReport builds a profile from a live run's report: counters and
// selectivity from the report (RunConfig.RuleMetrics / ProfileSample),
// blame from the caller's extraction join (may be nil), wall times into
// the Timing section.
func FromRunReport(rep egraph.RunReport, blame []egraph.BlameRow) *Profile {
	p := New()
	p.Runs = 1
	p.Iterations = rep.Iterations
	t := &Timing{
		Workers:   rep.Workers,
		ElapsedNS: rep.Elapsed.Nanoseconds(),
		MatchNS:   rep.MatchTime.Nanoseconds(),
		ApplyNS:   rep.ApplyTime.Nanoseconds(),
		RebuildNS: rep.RebuildTime.Nanoseconds(),
	}
	for _, rs := range rep.Rules {
		p.Rules = append(p.Rules, RuleProfile{
			Name:         rs.Name,
			Matched:      rs.Matched,
			Applied:      rs.Applied,
			Noops:        rs.Noops,
			RowsScanned:  rs.RowsScanned,
			DeltaQueries: rs.DeltaQueries,
			FullScans:    rs.FullScans,
			RowsCreated:  rs.RowsCreated,
			UnionsMade:   rs.UnionsMade,
			Throttled:    rs.Throttled,
			Banned:       rs.Banned,
			MatchLimited: rs.MatchLimited,
			SchedDropped: rs.SchedDropped,
		})
		t.Rules = append(t.Rules, RuleTiming{
			Name:    rs.Name,
			MatchNS: rs.MatchTime.Nanoseconds(),
			ApplyNS: rs.ApplyTime.Nanoseconds(),
		})
	}
	p.Selectivity = append([]egraph.RuleSelectivity(nil), rep.Selectivity...)
	p.Blame = append([]egraph.BlameRow(nil), blame...)
	p.Timing = t
	p.normalize()
	return p
}

// FromJournal builds a profile from a mutation journal: rule firings
// become Applied counts, and per-event rule provenance attributes row
// creation and unions — the same accounting the live path measures with
// batch deltas. Events emitted during rebuild are congruence repairs and
// belong to no rule, so they are skipped, mirroring the live path. The
// journal has no timing, so the result is deterministic by construction.
func FromJournal(events []journal.Event) *Profile {
	p := New()
	byRule := map[string]*RuleProfile{}
	get := func(rule string) *RuleProfile {
		if rule == "" {
			rule = SeedRule
		}
		rp := byRule[rule]
		if rp == nil {
			rp = &RuleProfile{Name: rule}
			byRule[rule] = rp
		}
		return rp
	}
	for _, e := range events {
		switch e.Kind {
		case journal.KRun:
			p.Runs++
		case journal.KIter:
			p.Iterations++
		case journal.KFire:
			rp := get(e.Name)
			rp.Matched += int64(e.Matches)
			rp.Applied += int64(e.Matches)
		case journal.KInsert, journal.KSet:
			if !e.Rebuild {
				get(e.Rule).RowsCreated++
			}
		case journal.KUnion:
			if !e.Rebuild {
				get(e.Rule).UnionsMade++
			}
		}
	}
	for _, rp := range byRule {
		p.Rules = append(p.Rules, *rp)
	}
	p.normalize()
	return p
}

// FromJournalFile reads and profiles the journal at path.
func FromJournalFile(path string) (*Profile, error) {
	events, err := journal.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := FromJournal(events)
	p.Sources = []string{path}
	return p, nil
}

// Merge folds o into p: counts sum (rules, selectivity, and blame merged
// by name), sources concatenate, and timing sums when both sides carry it.
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	p.Sources = append(p.Sources, o.Sources...)
	p.Runs += o.Runs
	p.Iterations += o.Iterations
	byName := make(map[string]int, len(p.Rules))
	for i := range p.Rules {
		byName[p.Rules[i].Name] = i
	}
	for _, rp := range o.Rules {
		if i, ok := byName[rp.Name]; ok {
			d := &p.Rules[i]
			d.Matched += rp.Matched
			d.Applied += rp.Applied
			d.Noops += rp.Noops
			d.RowsScanned += rp.RowsScanned
			d.DeltaQueries += rp.DeltaQueries
			d.FullScans += rp.FullScans
			d.RowsCreated += rp.RowsCreated
			d.UnionsMade += rp.UnionsMade
			d.Throttled += rp.Throttled
			d.Banned += rp.Banned
			d.MatchLimited += rp.MatchLimited
			d.SchedDropped += rp.SchedDropped
		} else {
			byName[rp.Name] = len(p.Rules)
			p.Rules = append(p.Rules, rp)
		}
	}
	p.Selectivity = egraph.MergeSelectivity(p.Selectivity, o.Selectivity)
	p.Blame = egraph.MergeBlame(p.Blame, o.Blame)
	if o.Timing != nil {
		if p.Timing == nil {
			p.Timing = &Timing{}
		}
		t, ot := p.Timing, o.Timing
		if ot.Workers != 0 {
			t.Workers = ot.Workers
		}
		t.ElapsedNS += ot.ElapsedNS
		t.MatchNS += ot.MatchNS
		t.ApplyNS += ot.ApplyNS
		t.RebuildNS += ot.RebuildNS
		tByName := make(map[string]int, len(t.Rules))
		for i := range t.Rules {
			tByName[t.Rules[i].Name] = i
		}
		for _, rt := range ot.Rules {
			if i, ok := tByName[rt.Name]; ok {
				t.Rules[i].MatchNS += rt.MatchNS
				t.Rules[i].ApplyNS += rt.ApplyNS
			} else {
				tByName[rt.Name] = len(t.Rules)
				t.Rules = append(t.Rules, rt)
			}
		}
	}
	p.normalize()
}

// Canonical returns a deep copy with the non-deterministic sections
// removed: Timing (wall clock) and Sources (file paths). What remains is
// byte-identical across worker counts for a fixed workload — the property
// the determinism tests and the perf-regression observatory rely on.
func (p *Profile) Canonical() *Profile {
	cp := *p
	cp.Timing = nil
	cp.Sources = nil
	cp.Rules = append([]RuleProfile(nil), p.Rules...)
	cp.Selectivity = append([]egraph.RuleSelectivity(nil), p.Selectivity...)
	cp.Blame = append([]egraph.BlameRow(nil), p.Blame...)
	cp.normalize()
	return &cp
}

// Encode renders the profile as indented JSON with a trailing newline —
// the artifact's on-disk form. encoding/json sorts nothing and maps are
// absent from the model, so equal profiles encode to equal bytes.
func (p *Profile) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Write writes the artifact to path.
func (p *Profile) Write(path string) error {
	b, err := p.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile decodes the artifact at path and lints it.
func ReadFile(path string) (*Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("profile: %s: %w", path, err)
	}
	if err := p.Lint(); err != nil {
		return nil, fmt.Errorf("profile: %s: %w", path, err)
	}
	return &p, nil
}

// Lint validates the artifact against the v1 schema contract: the schema
// tag, canonical (sorted, duplicate-free) section order, and the
// cross-field invariants every producer guarantees. This is the gate
// `make prof-smoke` runs on freshly produced artifacts through
// cmd/egg-lint.
func (p *Profile) Lint() error {
	if p.Schema != SchemaV1 {
		return fmt.Errorf("schema %q, want %q", p.Schema, SchemaV1)
	}
	if p.Runs < 0 || p.Iterations < 0 {
		return fmt.Errorf("negative runs (%d) or iterations (%d)", p.Runs, p.Iterations)
	}
	for i, rp := range p.Rules {
		if rp.Name == "" {
			return fmt.Errorf("rules[%d]: empty name", i)
		}
		if i > 0 && p.Rules[i-1].Name >= rp.Name {
			return fmt.Errorf("rules[%d]: %q out of sorted order after %q", i, rp.Name, p.Rules[i-1].Name)
		}
		if rp.Matched < 0 || rp.Applied < 0 || rp.Noops < 0 || rp.RowsScanned < 0 ||
			rp.DeltaQueries < 0 || rp.FullScans < 0 || rp.RowsCreated < 0 ||
			rp.Throttled < 0 || rp.Banned < 0 || rp.MatchLimited < 0 || rp.SchedDropped < 0 {
			return fmt.Errorf("rule %s: negative counter", rp.Name)
		}
		if rp.SchedDropped > 0 && rp.MatchLimited == 0 {
			return fmt.Errorf("rule %s: sched_dropped %d without a match_limited iteration", rp.Name, rp.SchedDropped)
		}
		if rp.Applied > rp.Matched {
			return fmt.Errorf("rule %s: applied %d > matched %d", rp.Name, rp.Applied, rp.Matched)
		}
		if rp.Noops > rp.Applied {
			return fmt.Errorf("rule %s: noops %d > applied %d", rp.Name, rp.Noops, rp.Applied)
		}
	}
	for i, rs := range p.Selectivity {
		if i > 0 && p.Selectivity[i-1].Rule >= rs.Rule {
			return fmt.Errorf("selectivity[%d]: %q out of sorted order", i, rs.Rule)
		}
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
	}
	for i, br := range p.Blame {
		if i > 0 && p.Blame[i-1].Rule >= br.Rule {
			return fmt.Errorf("blame[%d]: %q out of sorted order", i, br.Rule)
		}
		if br.Extracted+br.Rejected+br.Waste != br.Rows {
			return fmt.Errorf("blame %s: extracted %d + rejected %d + waste %d != rows %d",
				br.Rule, br.Extracted, br.Rejected, br.Waste, br.Rows)
		}
		if br.WasteRatio < 0 || br.WasteRatio > 1 {
			return fmt.Errorf("blame %s: waste ratio %g outside [0,1]", br.Rule, br.WasteRatio)
		}
	}
	if t := p.Timing; t != nil {
		if t.ElapsedNS < 0 || t.MatchNS < 0 || t.ApplyNS < 0 || t.RebuildNS < 0 {
			return fmt.Errorf("timing: negative duration")
		}
	}
	return nil
}

// FormatBlame renders the blame section as an aligned table, worst waste
// ratio first (ties by rule name).
func (p *Profile) FormatBlame() string {
	rows := append([]egraph.BlameRow(nil), p.Blame...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].WasteRatio != rows[j].WasteRatio {
			return rows[i].WasteRatio > rows[j].WasteRatio
		}
		return rows[i].Rule < rows[j].Rule
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %9s %10s %9s %8s %7s %9s\n",
		"rule", "rows", "extracted", "rejected", "waste", "waste%", "analysis")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %9d %10d %9d %8d %6.1f%% %9d\n",
			r.Rule, r.Rows, r.Extracted, r.Rejected, r.Waste, 100*r.WasteRatio, r.AnalysisRows)
	}
	return b.String()
}

// FormatSelectivity renders the selectivity section: per rule, one line
// per premise with its sampled fan-out (matches per execution) and
// selectivity (fraction of visited rows that matched), plus the
// access-path split — the numbers a variable-ordering planner reads.
func (p *Profile) FormatSelectivity() string {
	var b strings.Builder
	for _, rs := range p.Selectivity {
		fmt.Fprintf(&b, "%s  (sampled %d roots, every %d)\n", rs.Rule, rs.SampledRoots, rs.SampleEvery)
		fmt.Fprintf(&b, "  %2s %-6s %-20s %10s %10s %10s %8s %8s  %s\n",
			"#", "kind", "fn", "execs", "visits", "matches", "fanout", "sel", "paths (lk/ix/fs/ds)")
		for _, ps := range rs.Premises {
			fanout, sel := 0.0, 0.0
			if ps.Execs > 0 {
				fanout = float64(ps.Matches) / float64(ps.Execs)
			}
			if ps.Visits > 0 {
				sel = float64(ps.Matches) / float64(ps.Visits)
			}
			fmt.Fprintf(&b, "  %2d %-6s %-20s %10d %10d %10d %8.2f %8.3f  %d/%d/%d/%d\n",
				ps.Index, ps.Kind, ps.Fn, ps.Execs, ps.Visits, ps.Matches, fanout, sel,
				ps.Lookups, ps.IndexProbes, ps.FullScans, ps.DeltaScans)
		}
	}
	return b.String()
}

// FormatTop renders the n most expensive rules by rows scanned (the
// deterministic cost proxy; wall time, when present, is shown alongside).
func (p *Profile) FormatTop(n int) string {
	rows := append([]RuleProfile(nil), p.Rules...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].RowsScanned != rows[j].RowsScanned {
			return rows[i].RowsScanned > rows[j].RowsScanned
		}
		if rows[i].Applied != rows[j].Applied {
			return rows[i].Applied > rows[j].Applied
		}
		return rows[i].Name < rows[j].Name
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	times := map[string]RuleTiming{}
	if p.Timing != nil {
		for _, rt := range p.Timing.Rules {
			times[rt.Name] = rt
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %12s %9s %9s %8s %8s %10s %10s\n",
		"rule", "rows", "matched", "applied", "created", "unions", "match(ms)", "apply(ms)")
	for _, r := range rows {
		rt := times[r.Name]
		fmt.Fprintf(&b, "%-32s %12d %9d %9d %8d %8d %10.3f %10.3f\n",
			r.Name, r.RowsScanned, r.Matched, r.Applied, r.RowsCreated, r.UnionsMade,
			float64(rt.MatchNS)/float64(time.Millisecond),
			float64(rt.ApplyNS)/float64(time.Millisecond))
	}
	return b.String()
}
