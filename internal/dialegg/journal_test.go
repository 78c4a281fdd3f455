package dialegg

// End-to-end time-travel test: egg-opt's pipeline with --journal,
// --snapshot-every, and --explain-extraction, driven as a library. The
// journal must lint, replay bit-identically with snapshot verification,
// and the extraction report must name the creating rule for the rewritten
// operation.

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/obs/journal"
	"dialegg/internal/rules"
)

func TestJournalEndToEnd(t *testing.T) {
	src, err := os.ReadFile("testdata/div_pow2.mlir")
	if err != nil {
		t.Fatal(err)
	}
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(string(src), reg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	jw.SnapshotEvery = 1
	opt := NewOptimizer(Options{
		RuleSources:       rules.ImgConv(),
		Journal:           jw,
		ExplainExtraction: true,
	})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	// The rewritten divsi's extraction report names the creating rule.
	if len(rep.ExtractionReports) == 0 {
		t.Fatal("no extraction reports for a module with a rewritten op")
	}
	report := strings.Join(rep.ExtractionReports, "\n")
	if !strings.Contains(report, "introduced by rule div-pow2-to-shift") {
		t.Errorf("extraction report does not name the creating rule:\n%s", report)
	}
	if !strings.Contains(report, "arith.divsi rewritten to arith.shrsi") {
		t.Errorf("extraction report does not head with the rewritten op:\n%s", report)
	}

	// The journal lints and replays bit-identically, including every
	// embedded per-iteration snapshot.
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Lint(events); err != nil {
		t.Fatalf("journal fails lint: %v", err)
	}
	_, res, err := egraph.Replay(events, egraph.ReplayOptions{ToIter: -1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.GraphName != "scale" {
		t.Errorf("segment labeled %q, want the function name \"scale\"", res.GraphName)
	}
	if res.SnapshotsVerified != rep.Run.Iterations {
		t.Errorf("verified %d snapshots, run had %d iterations", res.SnapshotsVerified, rep.Run.Iterations)
	}
}

// TestJournalWithoutOutRejected: a row event whose out was deleted fails
// lint and replay with an error rather than a panic. The matmul_assoc
// journal under the matmul rules holds one rowout event; the insert
// edited is the last one, made by a rule during saturation.
func TestJournalWithoutOutRejected(t *testing.T) {
	src, err := os.ReadFile("testdata/matmul_assoc.mlir")
	if err != nil {
		t.Fatal(err)
	}
	m, err := mlir.ParseModule(string(src), dialects.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ruleSrcs, err := rules.Bundle("matmul")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	if _, err := NewOptimizer(Options{RuleSources: ruleSrcs, Journal: jw}).OptimizeModule(m); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{journal.KRowOut, journal.KInsert} {
		t.Run(kind, func(t *testing.T) {
			i := -1
			for j, e := range events {
				if e.Kind == kind && (i < 0 || kind == journal.KInsert) {
					i = j
				}
			}
			if i < 0 {
				t.Fatalf("journal has no %s event", kind)
			}
			edited := slices.Clone(events)
			edited[i].Out = nil
			if err := journal.Lint(edited); err == nil || !strings.Contains(err.Error(), "without out") {
				t.Errorf("lint: %v, want a row event without out", err)
			}
			if _, _, err := egraph.Replay(edited, egraph.ReplayOptions{ToIter: -1, Verify: true}); err == nil || !strings.Contains(err.Error(), "records no out") {
				t.Errorf("replay: %v, want an event that records no out", err)
			}
		})
	}
}
