// Package profile is the saturation profiler's artifact: a canonical JSON
// file (schema dialegg-profile/v2) that aggregates the engine's own
// per-rule records (egraph.RuleStats, with their premise counters) and
// extraction blame rows (egraph.BlameRow) over one or more saturation
// runs.
//
// FromRunReport is the only constructor of a filled artifact. The -profile
// flag on egg-opt/egglog writes one artifact per invocation, egg-serve
// folds every job into the live aggregate at /debugz/profilez, and
// `egg-prof merge` folds finished artifacts; the last two use Merge, which
// delegates to the engine's merge functions. cmd/egg-prof renders
// artifacts and cmd/egg-lint validates them.
//
// Everything except the per-rule wall times (RuleStats.MatchTime and
// ApplyTime) is deterministic: for a fixed workload, seed, and match mode,
// the canonical form (Canonical, which zeroes those times) is
// byte-identical at every worker and shard count.
package profile

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dialegg/internal/egraph"
)

// SchemaV2 identifies the artifact format; Lint rejects anything else,
// v1 artifacts (whose premise counters sat in a separate section)
// included.
const SchemaV2 = "dialegg-profile/v2"

// Profile is the canonical saturation-profile artifact.
type Profile struct {
	Schema string `json:"schema"`
	// Runs counts saturation runs folded in; Iterations their iterations.
	Runs       int `json:"runs"`
	Iterations int `json:"iterations"`
	// Rules holds the engine's per-rule records sorted by name, with
	// their premise counters when the producing run set
	// RunConfig.Selectivity.
	Rules []egraph.RuleStats `json:"rules,omitempty"`
	// Blame holds extraction blame rows sorted by rule name, when an
	// extraction decision was joined in.
	Blame []egraph.BlameRow `json:"blame,omitempty"`
}

// New returns an empty profile.
func New() *Profile { return &Profile{Schema: SchemaV2} }

// FromRunReport builds a profile from a run's report: its per-rule
// records, which every run keeps, premises included, plus blame from the
// caller's extraction join (may be nil). It merges them into an empty
// profile, so the profile shares no storage with the report.
func FromRunReport(rep egraph.RunReport, blame []egraph.BlameRow) *Profile {
	p := New()
	p.Merge(&Profile{Runs: 1, Iterations: rep.Iterations, Rules: rep.Rules, Blame: blame})
	return p
}

// Merge folds o into p: runs and iterations sum, and rules (premises
// included) and blame fold by name through the engine's merge functions,
// which leave blame sorted by rule; rules are sorted by name here. o is
// not modified, so one aggregate can absorb many short-lived profiles.
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	p.Runs += o.Runs
	p.Iterations += o.Iterations
	p.Rules = egraph.MergeRuleStats(p.Rules, o.Rules)
	sort.Slice(p.Rules, func(i, j int) bool { return p.Rules[i].Name < p.Rules[j].Name })
	p.Blame = egraph.MergeBlame(p.Blame, o.Blame)
}

// Canonical returns a copy with the per-rule wall times zeroed. What
// remains is byte-identical across worker counts for a fixed workload —
// the property the determinism tests rely on.
func (p *Profile) Canonical() *Profile {
	cp := New()
	cp.Merge(p)
	for i := range cp.Rules {
		cp.Rules[i].MatchTime, cp.Rules[i].ApplyTime = 0, 0
	}
	return cp
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

// Lint validates the artifact against the v2 schema contract: the schema
// tag and canonical (sorted, duplicate-free) section order here, and each
// record's own invariants, premises included, through its Check method —
// the same checks egg-lint applies to stats JSON. `make prof-smoke` runs
// it on freshly produced artifacts through cmd/egg-lint.
func (p *Profile) Lint() error {
	if p.Schema != SchemaV2 {
		return fmt.Errorf("schema %q, want %q", p.Schema, SchemaV2)
	}
	if p.Runs < 0 || p.Iterations < 0 {
		return fmt.Errorf("negative runs (%d) or iterations (%d)", p.Runs, p.Iterations)
	}
	for i, rs := range p.Rules {
		if rs.Name == "" {
			return fmt.Errorf("rules[%d]: empty name", i)
		}
		if i > 0 && p.Rules[i-1].Name >= rs.Name {
			return fmt.Errorf("rules[%d]: %q out of sorted order after %q", i, rs.Name, p.Rules[i-1].Name)
		}
		if err := rs.Check(); err != nil {
			return err
		}
	}
	for i, br := range p.Blame {
		if i > 0 && p.Blame[i-1].Rule >= br.Rule {
			return fmt.Errorf("blame[%d]: %q out of sorted order", i, br.Rule)
		}
		if err := br.Check(); err != nil {
			return err
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

// FormatSelectivity renders the rules' premise counters: per rule that
// carries them, one line per premise with its fan-out (matches per
// execution) and selectivity (fraction of visited rows that matched),
// plus the access-path split. It is empty when no rule carries premises.
func (p *Profile) FormatSelectivity() string {
	var b strings.Builder
	for _, rs := range p.Rules {
		if len(rs.Premises) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s  (%d rows scanned)\n", rs.Name, rs.RowsScanned)
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
// deterministic cost proxy; wall time is shown alongside).
func (p *Profile) FormatTop(n int) string {
	rows := append([]egraph.RuleStats(nil), p.Rules...)
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
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %12s %9s %9s %8s %8s %10s %10s\n",
		"rule", "rows", "matched", "applied", "created", "unions", "match(ms)", "apply(ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %12d %9d %9d %8d %8d %10.3f %10.3f\n",
			r.Name, r.RowsScanned, r.Matched, r.Applied, r.RowsCreated, r.UnionsMade,
			float64(r.MatchTime)/float64(time.Millisecond),
			float64(r.ApplyTime)/float64(time.Millisecond))
	}
	return b.String()
}
