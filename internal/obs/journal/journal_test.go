package journal

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleEvents is a minimal well-formed journal: one graph segment with a
// declaration prologue, one run of one iteration, and a rebuild.
func sampleEvents() []Event {
	s := "hello"
	return []Event{
		{Kind: KGraph, Name: "test", Explanations: true},
		{Kind: KSort, Name: "Expr"},
		{Kind: KFn, Fn: "Num", Params: []string{"i64"}, OutSort: "Expr", FnCost: 1},
		{Kind: KFn, Fn: "Tag", Params: []string{"String"}, OutSort: "Expr", FnCost: 1},
		{Kind: KInsert, Fn: "Num", Args: []Val{{Sort: "i64", Bits: "7"}}, Out: &Val{Sort: "Expr", Bits: "0"}},
		{Kind: KInsert, Fn: "Tag", Args: []Val{{Sort: "String", Str: &s}}, Out: &Val{Sort: "Expr", Bits: "1"}},
		{Kind: KRun, Workers: 2},
		{Kind: KIter, Iter: 1},
		{Kind: KUnion, Iter: 1, Rule: "some-rule",
			A: &Val{Sort: "Expr", Bits: "0"}, B: &Val{Sort: "Expr", Bits: "1"},
			CanonA: 0, CanonB: 1,
			Just: &Just{Kind: "rule", Rule: "some-rule"}},
		{Kind: KRebuildBegin, Iter: 1},
		{Kind: KRowOut, Iter: 1, Rebuild: true, Fn: "Num",
			Args: []Val{{Sort: "i64", Bits: "7"}}, Out: &Val{Sort: "Expr", Bits: "0"}},
		{Kind: KRebuildEnd, Iter: 1, Passes: 1},
		{Kind: KSnapshot, Iter: 1, Snapshot: json.RawMessage(`{"iteration":1}`)},
		{Kind: KRunEnd, Iter: 1, Name: "saturated"},
	}
}

// TestWriterRoundtrip: events written as JSON Lines decode back equal.
func TestWriterRoundtrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if !w.Enabled() {
		t.Fatal("live writer reports disabled")
	}
	for _, e := range events {
		w.Emit(e)
	}
	if w.Count() != len(events) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(events))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("roundtrip mismatch:\n got  %+v\n want %+v", got, events)
	}
}

// TestNilWriterSafe: every method of the disabled (nil) journal is a no-op.
func TestNilWriterSafe(t *testing.T) {
	var w *Writer
	if w.Enabled() {
		t.Error("nil writer reports enabled")
	}
	w.Emit(Event{Kind: KIter})
	if w.Count() != 0 {
		t.Errorf("nil Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestCreateReadLintFile: the file-backed path end to end.
func TestCreateReadLintFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEvents() {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(sampleEvents()) {
		t.Fatalf("read %d events, wrote %d", len(events), len(sampleEvents()))
	}
	n, err := LintFile(path)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if n != len(events) {
		t.Errorf("LintFile count = %d, want %d", n, len(events))
	}
}

// TestLintValid: the sample journal passes every invariant.
func TestLintValid(t *testing.T) {
	if err := Lint(sampleEvents()); err != nil {
		t.Errorf("well-formed journal rejected: %v", err)
	}
}

// TestLintViolations: each structural invariant rejects its violation.
func TestLintViolations(t *testing.T) {
	base := sampleEvents()
	mutate := func(f func([]Event) []Event) []Event {
		cp := make([]Event, len(base))
		copy(cp, base)
		return f(cp)
	}
	cases := []struct {
		name    string
		events  []Event
		wantErr string
	}{
		{"empty", nil, "empty"},
		{"unknown-kind", mutate(func(e []Event) []Event {
			e[4].Kind = "bogus"
			return e
		}), "unknown kind"},
		{"before-graph", mutate(func(e []Event) []Event {
			return e[1:]
		}), "precedes the first graph"},
		{"iter-decreases", mutate(func(e []Event) []Event {
			e[len(e)-1].Iter = 0
			return e
		}), "iteration 0 < previous 1"},
		{"end-without-begin", mutate(func(e []Event) []Event {
			return append(e, Event{Kind: KRebuildEnd, Iter: 1})
		}), "rebuild-end without"},
		{"unbalanced-begin", mutate(func(e []Event) []Event {
			return append(e, Event{Kind: KRebuildBegin, Iter: 1})
		}), "unbalanced"},
		{"flagged-outside-rebuild", mutate(func(e []Event) []Event {
			e[5].Rebuild = true
			return e
		}), "outside rebuild markers"},
		{"unflagged-inside-rebuild", mutate(func(e []Event) []Event {
			e[10].Rebuild = false
			return e
		}), "inside rebuild markers"},
		{"graph-inside-rebuild", mutate(func(e []Event) []Event {
			return append(e[:10:10], Event{Kind: KGraph, Name: "x"})
		}), "inside a rebuild"},
		{"fn-unnamed", mutate(func(e []Event) []Event {
			e[2].Fn = ""
			return e
		}), "without a name"},
		{"row-undeclared-fn", mutate(func(e []Event) []Event {
			e[4].Fn = "Ghost"
			return e
		}), "undeclared function"},
		{"union-not-effective", mutate(func(e []Event) []Event {
			e[8].CanonB = e[8].CanonA
			return e
		}), "not an effective union"},
		{"union-missing-operand", mutate(func(e []Event) []Event {
			e[8].B = nil
			return e
		}), "missing operand"},
		{"snapshot-bad-json", mutate(func(e []Event) []Event {
			e[12].Snapshot = json.RawMessage(`{"iteration":`)
			return e
		}), "not valid JSON"},
		{"insert-without-out", mutate(func(e []Event) []Event {
			e[4].Out = nil
			return e
		}), "row event without out"},
		{"rowout-without-out", mutate(func(e []Event) []Event {
			e[10].Out = nil
			return e
		}), "row event without out"},
		{"cost-below-one", mutate(func(e []Event) []Event {
			return append(e, Event{Kind: KCost, Iter: 1, Fn: "Num", Args: []Val{{Sort: "i64", Bits: "7"}}})
		}), "cost 0 below 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Lint(tc.events)
			if err == nil {
				t.Fatal("violation accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
