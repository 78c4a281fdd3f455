package egglog_test

// End-to-end journal tests at the egglog-program level: every feature the
// differential programs exercise (rulesets, primitives, relations,
// run-schedule) must journal a replayable record — replaying it
// reconstructs the interpreter's final e-graph bit-identically.

import (
	"bytes"
	"encoding/json"
	"testing"

	"dialegg/internal/egglog"
	"dialegg/internal/egraph"
	"dialegg/internal/obs/journal"
)

func TestJournalReplayEgglogPrograms(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			p := egglog.NewProgram()
			jw := journal.NewWriter(&buf)
			jw.SnapshotEvery = 1
			p.SetJournal(jw, tc.name)
			if _, err := p.ExecuteString(tc.src); err != nil {
				t.Fatal(err)
			}
			g := p.Graph()
			if err := g.Journal().Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := journal.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := journal.Lint(events); err != nil {
				t.Fatalf("journal fails lint: %v", err)
			}
			rg, res, err := egraph.Replay(events, egraph.ReplayOptions{ToIter: -1, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.GraphName != tc.name {
				t.Errorf("segment name = %q, want %q", res.GraphName, tc.name)
			}
			want, err := json.Marshal(g.Snapshot(g.Iteration()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rg.Snapshot(g.Iteration()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("replay diverged:\n original: %s\n replayed: %s", want, got)
			}
		})
	}
}
