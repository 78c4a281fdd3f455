package egraph

// Tests for the per-iteration record feed (RunConfig.Observer): the
// telemetry substrate the serving layer's Prometheus gauges and engine
// health watchdog consume.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dialegg/internal/sched"
)

// captureObserver records every ObserveIter delivery.
type captureObserver struct {
	iters []int
	stats []IterStats
	rules [][]sched.RuleIterStats
}

func (c *captureObserver) ObserveIter(iter int, st *IterStats, rules []sched.RuleIterStats) {
	c.iters = append(c.iters, iter)
	// The runner reuses both buffers; copy per the interface contract.
	c.stats = append(c.stats, *st)
	c.rules = append(c.rules, append([]sched.RuleIterStats(nil), rules...))
}

// TestObserverMatchesReport: the observer sees exactly the record the
// report keeps. With a throttling scheduler on, each payload equals its
// PerIter entry, and the per-rule outcomes summed over iterations equal
// RunReport.Rules — one record, every consumer.
func TestObserverMatchesReport(t *testing.T) {
	l, rules := blowupGraph(40)
	obs := &captureObserver{}
	rep := l.g.Run(rules, RunConfig{
		IterLimit: 8,
		Workers:   2,
		Scheduler: sched.Backoff{Threshold: 4, Factor: 2, BanLength: 2},
		Observer:  obs,
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if len(obs.stats) != rep.Iterations || len(rep.PerIter) != rep.Iterations {
		t.Fatalf("observer got %d payloads, report has %d records for %d iterations",
			len(obs.stats), len(rep.PerIter), rep.Iterations)
	}
	for i, st := range obs.stats {
		if obs.iters[i] != i+1 {
			t.Errorf("payload %d: iter = %d, want %d", i, obs.iters[i], i+1)
		}
		if !reflect.DeepEqual(st, rep.PerIter[i]) {
			t.Errorf("payload %d differs from its PerIter entry:\n got  %+v\n want %+v", i, st, rep.PerIter[i])
		}
		if st.Classes <= 0 || st.LiveRows <= 0 {
			t.Errorf("payload %d: classes %d / live rows %d not populated", i, st.Classes, st.LiveRows)
		}
	}
	sums := make([]RuleStats, len(rules))
	for i, payload := range obs.rules {
		if len(payload) != len(rules) {
			t.Fatalf("payload %d carries %d rules, want %d", i, len(payload), len(rules))
		}
		for j, o := range payload {
			if o.Rule != rules[j].Name {
				t.Fatalf("payload %d rule %d = %q, want %q", i, j, o.Rule, rules[j].Name)
			}
			sums[j].Matched += o.Matched
			sums[j].Applied += o.Applied
			if o.Skipped {
				sums[j].Throttled++
			}
			if o.Limited {
				sums[j].MatchLimited++
			}
		}
	}
	var throttled, limited int64
	for j, want := range rep.Rules {
		got := sums[j]
		if got.Matched != want.Matched || got.Applied != want.Applied ||
			got.Throttled != want.Throttled || got.MatchLimited != want.MatchLimited {
			t.Errorf("rule %s: observer sums matched/applied/skipped/limited = %d/%d/%d/%d, report %d/%d/%d/%d",
				want.Name, got.Matched, got.Applied, got.Throttled, got.MatchLimited,
				want.Matched, want.Applied, want.Throttled, want.MatchLimited)
		}
		throttled += want.Throttled
		limited += want.MatchLimited
	}
	// The agreement must cover the scheduler's columns, not just zeros.
	if throttled == 0 || limited == 0 {
		t.Fatalf("workload never throttled (%d) or limited (%d) a rule", throttled, limited)
	}
}

// TestObserverDoesNotChangeResult: a run with an observer attached is
// bit-identical to one without — the feed only observes.
func TestObserverDoesNotChangeResult(t *testing.T) {
	build := func() (*exprLang, []*Rule) {
		l := newExprLangQuiet()
		g := l.g
		prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
		for i := 1; i < 60; i++ {
			leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
			prev, _ = g.Insert(l.Add, prev, leaf)
		}
		return l, []*Rule{commRule(l.Add)}
	}
	l1, rules1 := build()
	plain := l1.g.Run(rules1, RunConfig{IterLimit: 3, NodeLimit: 50_000, Workers: 2})
	l2, rules2 := build()
	observed := l2.g.Run(rules2, RunConfig{IterLimit: 3, NodeLimit: 50_000, Workers: 2, Observer: &captureObserver{}})

	if plain.Iterations != observed.Iterations || plain.Nodes != observed.Nodes ||
		plain.Classes != observed.Classes || plain.Stop != observed.Stop {
		t.Fatalf("observed run diverged: %+v vs %+v", observed, plain)
	}
	b1, _ := json.Marshal(l1.g.Snapshot(0))
	b2, _ := json.Marshal(l2.g.Snapshot(0))
	if !bytes.Equal(b1, b2) {
		t.Fatal("observed run produced a different e-graph snapshot")
	}
}
