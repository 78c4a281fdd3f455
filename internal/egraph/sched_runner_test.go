package egraph

// Tests for the scheduler hook at the runner's match-phase boundary:
// counter surfacing, worker-count determinism of scheduled runs, the
// nil == Simple equivalence, and the saturation semantics around bans.

import (
	"bytes"
	"encoding/json"
	"testing"

	"dialegg/internal/obs/journal"
	"dialegg/internal/sched"
)

// blowupGraph builds an Add chain whose comm rule produces a growing
// match count — the canonical workload a backoff scheduler exists to
// throttle.
func blowupGraph(n int) (*exprLang, []*Rule) {
	l := newExprLangQuiet()
	g := l.g
	prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
	for i := 1; i < n; i++ {
		leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
		prev, _ = g.Insert(l.Add, prev, leaf)
	}
	return l, []*Rule{commRule(l.Add), commRule(l.Mul)}
}

// snapBytes marshals the final graph state for byte-identity checks.
func snapBytes(t *testing.T, g *EGraph) []byte {
	t.Helper()
	b, err := json.Marshal(g.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSchedulerBackoffCounters: a low-threshold backoff run surfaces its
// interventions everywhere the observability plane expects them — the
// per-rule Throttled/MatchLimited/SchedDropped counters, the
// IterStats.Sched decision log, and never as a StopMatchLimit.
func TestSchedulerBackoffCounters(t *testing.T) {
	l, rules := blowupGraph(40)
	rep := l.g.Run(rules, RunConfig{
		IterLimit:   8,
		Workers:     2,
		RuleMetrics: true,
		Scheduler:   sched.Backoff{Threshold: 4, Factor: 2, BanLength: 2},
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Stop == StopMatchLimit {
		t.Fatalf("scheduler truncation must not report StopMatchLimit")
	}
	var comm *RuleStats
	for i := range rep.Rules {
		if rep.Rules[i].Name == "comm-Add" {
			comm = &rep.Rules[i]
		}
	}
	if comm == nil {
		t.Fatal("no stats for comm-Add")
	}
	if comm.MatchLimited == 0 || comm.SchedDropped == 0 {
		t.Errorf("expected scheduler truncation on comm-Add: %+v", comm)
	}
	if comm.Throttled == 0 {
		t.Errorf("expected backoff bans on comm-Add: %+v", comm)
	}
	var skips, limits int
	for _, it := range rep.PerIter {
		for _, d := range it.Sched {
			switch d.Action {
			case "skip":
				skips++
			case "limit":
				limits++
				if d.Dropped <= 0 || d.Limit <= 0 {
					t.Errorf("limit decision without drop accounting: %+v", d)
				}
			}
		}
	}
	if skips == 0 || limits == 0 {
		t.Errorf("IterStats.Sched missing decisions: %d skips, %d limits", skips, limits)
	}
}

// TestSchedulerDeterministicAcrossWorkers: a scheduled run's final state
// is byte-identical for every worker count, in both naive and semi-naive
// modes — decisions key on merged per-iteration stats, never on worker
// scheduling.
func TestSchedulerDeterministicAcrossWorkers(t *testing.T) {
	schedulers := map[string]sched.Scheduler{
		"backoff":    sched.Backoff{Threshold: 5, Factor: 2, BanLength: 1},
		"matchlimit": sched.MatchLimit{Limit: 7},
	}
	for name, s := range schedulers {
		for _, naive := range []bool{false, true} {
			run := func(workers int) ([]byte, int, StopReason) {
				l, rules := blowupGraph(30)
				rep := l.g.Run(rules, RunConfig{
					IterLimit: 6,
					Workers:   workers,
					Naive:     naive,
					Scheduler: s,
				})
				if rep.Err != nil {
					t.Fatal(rep.Err)
				}
				return snapBytes(t, l.g), rep.Iterations, rep.Stop
			}
			base, iters, stop := run(1)
			for _, w := range []int{4, 8} {
				got, gi, gs := run(w)
				if gi != iters || gs != stop {
					t.Errorf("%s naive=%v workers=%d: (%d,%s) vs serial (%d,%s)",
						name, naive, w, gi, gs, iters, stop)
				}
				if string(got) != string(base) {
					t.Errorf("%s naive=%v workers=%d: final state differs from serial run",
						name, naive, w)
				}
			}
		}
	}
}

// TestSchedulerNilMatchesSimple: a nil Scheduler and sched.Simple take
// the identical code path outcome — same stop, same iterations, same
// final bytes — so defaulting is free.
func TestSchedulerNilMatchesSimple(t *testing.T) {
	run := func(s sched.Scheduler) ([]byte, RunReport) {
		l, rules := blowupGraph(25)
		rep := l.g.Run(rules, RunConfig{IterLimit: 4, Workers: 2, Scheduler: s})
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		return snapBytes(t, l.g), rep
	}
	nb, nr := run(nil)
	sb, sr := run(sched.Simple{})
	if string(nb) != string(sb) {
		t.Fatal("Simple scheduler diverged from unscheduled run")
	}
	if nr.Iterations != sr.Iterations || nr.Stop != sr.Stop {
		t.Fatalf("reports diverge: nil (%d,%s) vs simple (%d,%s)",
			nr.Iterations, nr.Stop, sr.Iterations, sr.Stop)
	}
	for _, it := range sr.PerIter {
		if len(it.Sched) != 0 {
			t.Fatalf("Simple must record no decisions: %+v", it.Sched)
		}
	}
}

// TestSchedulerBanThenSaturate: temporary bans suppress the saturation
// stop (a no-growth iteration during a ban is a fixpoint of the
// throttled system only), but once bans expire the run completes and
// reaches the exact same saturated graph as an unscheduled run —
// equality saturation is confluent, so throttling changes the path, not
// the destination.
func TestSchedulerBanThenSaturate(t *testing.T) {
	build := func() (*exprLang, []*Rule) {
		l := newExprLangQuiet()
		g := l.g
		for i := 0; i < 3; i++ {
			a, _ := g.Insert(l.Num, I64Value(g.I64, int64(2*i)))
			b, _ := g.Insert(l.Num, I64Value(g.I64, int64(2*i+1)))
			g.Insert(l.Add, a, b)
		}
		return l, []*Rule{commRule(l.Add)}
	}

	l, rules := build()
	rep := l.g.Run(rules, RunConfig{IterLimit: 64, Workers: 2,
		Scheduler: sched.Backoff{Threshold: 1, Factor: 2, BanLength: 2}})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Stop != StopSaturated {
		t.Fatalf("scheduled run stop = %s, want saturated", rep.Stop)
	}
	// The ban machinery must actually have engaged, and the run must have
	// outlived an unscheduled saturation (waiting iterations are real).
	banned := false
	for _, it := range rep.PerIter {
		for _, d := range it.Sched {
			if d.Action == "skip" {
				banned = true
			}
		}
	}
	if !banned {
		t.Fatal("threshold 1 never triggered a ban; test is vacuous")
	}

	ul, urules := build()
	urep := ul.g.Run(urules, RunConfig{IterLimit: 64, Workers: 2})
	if urep.Stop != StopSaturated {
		t.Fatalf("unscheduled run stop = %s", urep.Stop)
	}
	if rep.Iterations <= urep.Iterations {
		t.Errorf("scheduled run (%d iters) should outlast unscheduled (%d): bans add waiting iterations",
			rep.Iterations, urep.Iterations)
	}
	// The fixpoints agree structurally (same nodes, classes, unions).
	// Byte-level snapshots legitimately differ — row provenance records
	// which iteration inserted each row, and throttling reschedules that —
	// so semantic agreement is checked via extraction in the difftest
	// metamorphic suite.
	if rep.Nodes != urep.Nodes || rep.Classes != urep.Classes {
		t.Errorf("saturated shapes diverge: scheduled %d/%d vs unscheduled %d/%d nodes/classes",
			rep.Nodes, rep.Classes, urep.Nodes, urep.Classes)
	}
	if l.g.UnionCount() != ul.g.UnionCount() {
		t.Errorf("union counts diverge: %d vs %d", l.g.UnionCount(), ul.g.UnionCount())
	}
}

// TestSchedulerJournalReplayParity: a scheduled run journals like any
// other — replay reconstructs the final state byte-for-byte with every
// embedded snapshot verifying, and attaching the journal does not
// perturb the scheduled run at all. The journal records effects (unions,
// inserts), so scheduler decisions need no events of their own.
func TestSchedulerJournalReplayParity(t *testing.T) {
	scheduled := func(journaled bool) (*EGraph, RunReport, []journal.Event) {
		l := newExprLangQuiet()
		g := l.g
		var buf bytes.Buffer
		// Attach before any insert: the journal must carry the full history
		// for replay to reconstruct the graph.
		if journaled {
			jw := journal.NewWriter(&buf)
			jw.SnapshotEvery = 1
			g.SetJournal(jw, "sched-replay")
		}
		prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
		for i := 1; i < 24; i++ {
			leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
			prev, _ = g.Insert(l.Add, prev, leaf)
		}
		rules := []*Rule{commRule(l.Add), commRule(l.Mul)}
		rep := g.Run(rules, RunConfig{
			IterLimit: 6,
			Workers:   2,
			Scheduler: sched.Backoff{Threshold: 5, Factor: 2, BanLength: 2},
		})
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
				t.Fatalf("scheduled journal fails lint: %v", err)
			}
		}
		return g, rep, events
	}

	g, rep, events := scheduled(true)
	throttles := 0
	for _, it := range rep.PerIter {
		throttles += len(it.Sched)
	}
	if throttles == 0 {
		t.Fatal("workload did not engage the scheduler; parity check is vacuous")
	}
	rg, res, err := Replay(events, ReplayOptions{ToIter: -1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotsVerified != rep.Iterations {
		t.Errorf("verified %d snapshots, run had %d iterations", res.SnapshotsVerified, rep.Iterations)
	}
	want, err := json.Marshal(g.Snapshot(g.Iteration()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rg.Snapshot(res.Iterations))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scheduled replay diverged:\n original: %s\n replayed: %s", want, got)
	}

	plain, _, _ := scheduled(false)
	if !bytes.Equal(snapBytes(t, plain), snapBytes(t, g)) {
		t.Error("journaling perturbed the scheduled run")
	}
}
