package egraph

// Differential tests for journal replay: the contract is that replaying a
// journal reconstructs the original e-graph bit-identically — at the final
// state and at every intermediate iteration — for every worker count and
// both match modes, and that attaching a journal does not perturb the
// run's evolution at all.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dialegg/internal/obs/journal"
)

// journaledRun builds a fixed workload, optionally journals it, and
// saturates it with the given worker count and match mode. It returns the
// graph, the run report, and the decoded journal (nil when not journaled).
func journaledRun(t *testing.T, workers int, naive, journaled bool) (*EGraph, RunReport, []journal.Event) {
	t.Helper()
	l := newExprLang(t)
	g := l.g
	var buf bytes.Buffer
	if journaled {
		jw := journal.NewWriter(&buf)
		jw.SnapshotEvery = 1
		g.SetJournal(jw, "replay-test")
	}
	a, _ := g.Insert(l.Var, g.InternString("a"))
	prev := a
	for i := 0; i < 12; i++ {
		n, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
		add, err := g.Insert(l.Add, prev, n)
		if err != nil {
			t.Fatal(err)
		}
		prev = add
	}
	rep := g.Run([]*Rule{commRule(l.Add), commRule(l.Mul)},
		RunConfig{IterLimit: 3, Workers: workers, Naive: naive})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	var events []journal.Event
	if journaled {
		if err := g.Journal().Flush(); err != nil {
			t.Fatal(err)
		}
		var err error
		events, err = journal.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.Lint(events); err != nil {
			t.Fatalf("journal fails lint: %v", err)
		}
	}
	return g, rep, events
}

// snapJSON is the bit-identity fingerprint: the compact marshal of a
// process-independent snapshot.
func snapJSON(t *testing.T, g *EGraph, iter int) []byte {
	t.Helper()
	b, err := json.Marshal(g.Snapshot(iter))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayBitIdentical: for every worker count and match mode, a full
// replay of the journal reconstructs the final e-graph byte-for-byte, and
// every embedded snapshot verifies against the replayed state.
func TestReplayBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, naive := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/naive=%v", workers, naive), func(t *testing.T) {
				g, rep, events := journaledRun(t, workers, naive, true)
				rg, res, err := Replay(events, ReplayOptions{ToIter: -1, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.GraphName != "replay-test" {
					t.Errorf("graph name = %q", res.GraphName)
				}
				if res.SnapshotsVerified != rep.Iterations {
					t.Errorf("verified %d snapshots, run had %d iterations", res.SnapshotsVerified, rep.Iterations)
				}
				if res.Iterations != g.Iteration() {
					t.Errorf("replay iterations = %d, original = %d", res.Iterations, g.Iteration())
				}
				want := snapJSON(t, g, g.Iteration())
				got := snapJSON(t, rg, res.Iterations)
				if !bytes.Equal(got, want) {
					t.Errorf("final state diverged:\n original: %s\n replayed: %s", want, got)
				}
				if rg.UnionCount() != g.UnionCount() {
					t.Errorf("union count %d, want %d", rg.UnionCount(), g.UnionCount())
				}
				if rg.NumClasses() != g.NumClasses() {
					t.Errorf("class count %d, want %d", rg.NumClasses(), g.NumClasses())
				}
			})
		}
	}
}

// TestReplayToIter: stopping at iteration K reproduces the snapshot the
// original run embedded at K, byte-for-byte, for every K.
func TestReplayToIter(t *testing.T) {
	_, rep, events := journaledRun(t, 4, false, true)
	embedded := map[int][]byte{}
	for _, e := range events {
		if e.Kind == journal.KSnapshot {
			embedded[e.Iter] = e.Snapshot
		}
	}
	if len(embedded) != rep.Iterations {
		t.Fatalf("journal embeds %d snapshots, run had %d iterations", len(embedded), rep.Iterations)
	}
	for k := 1; k <= rep.Iterations; k++ {
		rg, res, err := Replay(events, ReplayOptions{ToIter: k})
		if err != nil {
			t.Fatalf("to-iter %d: %v", k, err)
		}
		if res.Iterations != k {
			t.Fatalf("to-iter %d stopped at iteration %d", k, res.Iterations)
		}
		if got := snapJSON(t, rg, k); !bytes.Equal(got, embedded[k]) {
			t.Errorf("iteration %d state diverged:\n embedded: %s\n replayed: %s", k, embedded[k], got)
		}
	}
}

// TestJournalOffBitIdentity: journaling is observation only — the same
// workload evolves to a byte-identical final state with the journal on
// and off (the seed path).
func TestJournalOffBitIdentity(t *testing.T) {
	plain, _, _ := journaledRun(t, 2, false, false)
	journaled, _, _ := journaledRun(t, 2, false, true)
	want := snapJSON(t, plain, plain.Iteration())
	got := snapJSON(t, journaled, journaled.Iteration())
	if !bytes.Equal(got, want) {
		t.Errorf("journaling perturbed the run:\n off: %s\n on:  %s", want, got)
	}
}

// TestReplayWithExplanations: when the original run recorded proofs,
// replay mirrors the table bookkeeping (compaction off, origin tuples)
// and still reconstructs the final state bit-identically — and the
// replayed graph can explain the unions it replayed.
func TestReplayWithExplanations(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	g.EnableExplanations()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	jw.SnapshotEvery = 1
	g.SetJournal(jw, "explained")
	a, _ := g.Insert(l.Var, g.InternString("a"))
	b, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	orig, _ := g.Insert(l.Add, a, b)
	rep := g.Run([]*Rule{commRule(l.Add)}, RunConfig{IterLimit: 3, Workers: 1})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if err := g.Journal().Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rg, res, err := Replay(events, ReplayOptions{ToIter: -1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapJSON(t, rg, res.Iterations), snapJSON(t, g, g.Iteration())) {
		t.Error("explained run's replay diverged")
	}
	_, _, _ = a, b, orig
	// The replayed proof forest carries the rule justifications the
	// original recorded: the two Add orientations are provably equal.
	addF := rg.funcsBy["Add"]
	var outs []Value
	rows := rg.tab(addF).rows
	for ri := range rows {
		if r := &rows[ri]; !r.dead {
			outs = append(outs, r.out)
		}
	}
	if len(outs) != 2 {
		t.Fatalf("replayed Add table has %d live rows, want 2", len(outs))
	}
	steps, err := rg.Explain(outs[0], outs[1])
	if err != nil {
		t.Fatal(err)
	}
	if text := rg.FormatExplanation(NewExtractor(rg), steps); !strings.Contains(text, "comm-Add") {
		t.Errorf("replayed explanation lacks the rule name:\n%s", text)
	}
}
