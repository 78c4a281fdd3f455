// Command egg-lint validates the artifacts the other tools write, picking
// the checker from each file's shape:
//
//   - a Chrome trace ({"traceEvents": ...}): named events, monotonic
//     complete events, balanced B/E pairs (obs.ValidateTrace);
//   - stats JSON (egg-opt's report with the engine report under "run" and
//     extraction blame under "blame", or egglog's bare run report):
//     per-iteration and per-rule row counts add up to the run total, and
//     every rule, selectivity, and blame record passes its own Check (the
//     checks a profile artifact's Lint applies);
//   - an e-graph event journal (JSON Lines of events): known kinds,
//     iteration monotonicity, balanced rebuild markers, canonical union
//     operands (journal.Lint);
//   - Prometheus text exposition: name and label syntax, HELP/TYPE,
//     duplicate samples, counter and histogram invariants (telemetry.Lint);
//   - a dialegg-profile/v1 or dialegg-schedule/v2 artifact (the schema's
//     Lint).
//
// It exits non-zero with a diagnostic on the first malformed file; the
// Makefile's smoke targets run it over what they produce.
//
// Usage:
//
//	egg-lint [-require name,...] FILE...
//
// -require lists metric names that must appear as samples in every
// Prometheus file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"dialegg/internal/egraph"
	"dialegg/internal/obs"
	"dialegg/internal/obs/journal"
	"dialegg/internal/obs/profile"
	"dialegg/internal/obs/telemetry"
	"dialegg/internal/sched"
)

func main() {
	require := flag.String("require", "", "comma-separated metric names that must appear as samples in Prometheus files")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: egg-lint [-require name,...] FILE...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		msg, err := lint(path, *require)
		if err != nil {
			fmt.Fprintf(os.Stderr, "egg-lint: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %s\n", path, msg)
	}
}

// lint checks one file and returns a one-line summary of what it checked.
func lint(path, require string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	data = bytes.TrimSpace(data)
	if len(data) == 0 || data[0] != '{' {
		return lintMetrics(data, require)
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		// Not one JSON object: one event per line is a journal.
		return lintJournal(path)
	}
	switch {
	case probe["traceEvents"] != nil:
		n, err := obs.ValidateTrace(data)
		return fmt.Sprintf("trace OK, %d spans", n), err
	case probe["schema"] != nil:
		var schema string
		// A schema that is not a string stays "" and is reported unknown.
		_ = json.Unmarshal(probe["schema"], &schema)
		switch schema {
		case profile.SchemaV1:
			_, err := profile.ReadFile(path)
			return "profile OK", err
		case sched.SchemaV2:
			art, err := sched.ReadArtifact(path)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("schedule OK, %d ruleset entries", len(art.Rulesets)), nil
		}
		return "", fmt.Errorf("unknown artifact schema %s", probe["schema"])
	case probe["k"] != nil:
		return lintJournal(path)
	}
	if nested, ok := probe["run"]; ok {
		return "stats OK", lintStats(nested, probe["blame"])
	}
	return "stats OK", lintStats(data, nil)
}

func lintJournal(path string) (string, error) {
	n, err := journal.LintFile(path)
	return fmt.Sprintf("journal OK, %d events", n), err
}

func lintMetrics(data []byte, require string) (string, error) {
	n, err := telemetry.Lint(data)
	if err != nil {
		return "", err
	}
	for _, name := range strings.Split(require, ",") {
		if name == "" {
			continue
		}
		// A required metric must appear as a sample line (possibly
		// labeled or with a histogram suffix), not just in a comment.
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(_bucket|_sum|_count)?(\{|[ \t])`)
		if !re.Match(data) {
			return "", fmt.Errorf("required metric %s has no samples", name)
		}
	}
	return fmt.Sprintf("metrics OK, %d samples", n), nil
}

// lintStats checks the cross-field invariants of an engine run report and
// of the extraction blame rows reported beside it (blame may be nil).
func lintStats(data, blame []byte) error {
	var run egraph.RunReport
	if err := json.Unmarshal(data, &run); err != nil {
		return fmt.Errorf("stats: run report: %w", err)
	}
	var rows []egraph.BlameRow
	if blame != nil {
		if err := json.Unmarshal(blame, &rows); err != nil {
			return fmt.Errorf("stats: blame: %w", err)
		}
	}
	if run.Iterations < 1 {
		return fmt.Errorf("stats: no iterations recorded")
	}
	if len(run.PerIter) != run.Iterations {
		return fmt.Errorf("stats: %d per-iteration records for %d iterations", len(run.PerIter), run.Iterations)
	}
	var iterRows int64
	for _, it := range run.PerIter {
		iterRows += it.RowsScanned
	}
	if iterRows != run.RowsScanned {
		return fmt.Errorf("stats: per-iteration rows %d != total rows scanned %d", iterRows, run.RowsScanned)
	}
	var ruleRows int64
	for _, r := range run.Rules {
		if err := r.Check(); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		ruleRows += r.RowsScanned
	}
	if ruleRows != run.RowsScanned {
		return fmt.Errorf("stats: per-rule rows %d != total rows scanned %d", ruleRows, run.RowsScanned)
	}
	for _, rs := range run.Selectivity {
		if err := rs.Check(); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
	}
	for _, br := range rows {
		if err := br.Check(); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
	}
	return nil
}
