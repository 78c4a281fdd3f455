package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaV2 tags the versioned schedule artifact, whose entries store each
// strategy as its -scheduler spec. Readers reject other schemas, v1
// included, so a format change can never be misread silently.
const SchemaV2 = "dialegg-schedule/v2"

// TunerInfo records how a tuned artifact was produced — provenance for
// humans and the ablation tables, never consulted by loaders.
type TunerInfo struct {
	// Workloads names the corpus the tuner replayed.
	Workloads []string `json:"workloads,omitempty"`
	// Objective is the cost the search minimized (e.g. "rows_scanned").
	Objective string `json:"objective,omitempty"`
	// Budget and Evaluated count candidate evaluations allowed and spent.
	Budget    int `json:"budget,omitempty"`
	Evaluated int `json:"evaluated,omitempty"`
}

// RulesetSchedule is one rule set's tuned strategy. The empty RuleSet
// name is the default entry, used when no named entry matches — it is
// what makes a tuned artifact loadable against rule sets the tuner never
// saw (they get the globally best strategy instead of an error).
type RulesetSchedule struct {
	RuleSet string `json:"ruleset"`
	// Scheduler is the strategy as its canonical -scheduler spec (its
	// Fingerprint), e.g. "backoff:threshold=128,factor=2,ban=5".
	Scheduler string `json:"scheduler"`
	// BaselineCost/TunedCost record the tuner's objective value under the
	// Simple baseline and under this entry, for the ablation record.
	BaselineCost int64 `json:"baseline_cost,omitempty"`
	TunedCost    int64 `json:"tuned_cost,omitempty"`
}

// Artifact is the versioned, deterministic schedule file egg-opt, egglog,
// and egg-serve load with -schedule: schema tag, optional tuner
// provenance, and per-ruleset strategies sorted by ruleset name.
type Artifact struct {
	Schema   string            `json:"schema"`
	Tuner    *TunerInfo        `json:"tuner,omitempty"`
	Rulesets []RulesetSchedule `json:"rulesets"`
}

// NewArtifact returns an empty v2 artifact.
func NewArtifact() *Artifact { return &Artifact{Schema: SchemaV2} }

// Canonical sorts the rulesets by name so Encode is byte-stable
// regardless of build order.
func (a *Artifact) Canonical() {
	sort.Slice(a.Rulesets, func(i, j int) bool { return a.Rulesets[i].RuleSet < a.Rulesets[j].RuleSet })
}

// Encode canonicalizes and renders the artifact as indented JSON with a
// trailing newline (the repo's artifact convention).
func (a *Artifact) Encode() ([]byte, error) {
	a.Canonical()
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile encodes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadArtifact loads and lints a schedule artifact. Unknown fields are
// errors, so a misspelled or stale field is never dropped silently.
func ReadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err = dec.Decode(&a)
	// The decoder reads on past an unknown field, so a file of another
	// schema version is rejected by its tag rather than by the first
	// field that version names differently.
	if err == nil || (a.Schema != "" && a.Schema != SchemaV2) {
		err = a.Lint()
	}
	if err == nil && dec.More() {
		err = fmt.Errorf("trailing data after the artifact")
	}
	if err != nil {
		return nil, fmt.Errorf("sched: %s: %w", path, err)
	}
	return &a, nil
}

// Lint checks the artifact's structural contract: the exact v2 schema,
// rulesets sorted and unique by name, and every entry's spec canonical —
// it parses, and the parsed strategy's Fingerprint prints it unchanged.
// For cannot fail on a linted artifact.
func (a *Artifact) Lint() error {
	if a.Schema != SchemaV2 {
		return fmt.Errorf("schema %q, want %q", a.Schema, SchemaV2)
	}
	if len(a.Rulesets) == 0 {
		return fmt.Errorf("no ruleset entries")
	}
	for i := range a.Rulesets {
		rs := &a.Rulesets[i]
		label := rs.RuleSet
		if label == "" {
			label = "(default)"
		}
		if i > 0 {
			switch prev := a.Rulesets[i-1].RuleSet; {
			case rs.RuleSet == prev:
				return fmt.Errorf("duplicate ruleset entry %s", label)
			case rs.RuleSet < prev:
				return fmt.Errorf("ruleset entries not sorted: %s after %q", label, prev)
			}
		}
		s, err := Parse(rs.Scheduler)
		if err != nil {
			return fmt.Errorf("ruleset %s: %w", label, err)
		}
		if fp := s.Fingerprint(); fp != rs.Scheduler {
			return fmt.Errorf("ruleset %s: scheduler %q is not canonical, want %q", label, rs.Scheduler, fp)
		}
	}
	return nil
}

// For resolves the strategy for a rule set name: the exact entry if one
// exists, else the default ("") entry, else nil. The artifact must have
// passed Lint (ReadArtifact lints); For panics on a spec Lint rejects.
func (a *Artifact) For(ruleset string) Scheduler {
	var def *RulesetSchedule
	for i := range a.Rulesets {
		switch rs := &a.Rulesets[i]; rs.RuleSet {
		case ruleset:
			return mustParse(rs.Scheduler)
		case "":
			def = rs
		}
	}
	if def == nil {
		return nil
	}
	return mustParse(def.Scheduler)
}

func mustParse(spec string) Scheduler {
	s, err := Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("sched: unlinted artifact: %v", err))
	}
	return s
}

// Load resolves a run's strategy from the -schedule and -scheduler flags:
// the artifact at path, when set, supplies the ruleset's entry, and a
// non-empty spec overrides it. The artifact is read and linted even when
// the spec wins, so a bad file still fails. The result is nil when
// neither names a strategy.
func Load(path, ruleset, spec string) (Scheduler, error) {
	var s Scheduler
	if path != "" {
		a, err := ReadArtifact(path)
		if err != nil {
			return nil, err
		}
		s = a.For(ruleset)
	}
	if spec != "" {
		return Parse(spec)
	}
	return s, nil
}
