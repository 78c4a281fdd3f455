package egraph

// Tests for the observability layer's accounting: per-rule metrics, the
// cross-field invariants the stats validator (egg-lint) relies on, report
// merging, and the stats-JSON round trip.

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dialegg/internal/obs"
)

// buildChainGraph builds a 60-leaf Add chain with comm rules on Add and
// Mul — enough rows that the match phase shards and several iterations run.
func buildChainGraph() (*exprLang, []*Rule) {
	l := newExprLangQuiet()
	g := l.g
	prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
	for i := 1; i < 60; i++ {
		leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
		prev, _ = g.Insert(l.Add, prev, leaf)
	}
	return l, []*Rule{commRule(l.Add), commRule(l.Mul)}
}

// TestRuleMetricsInvariants: the invariants the per-rule accounting
// guarantees — matched >= applied >= noops, per-rule rows sum to the
// total, sub-query counts positive, and per-rule matched sums to the
// per-iteration matches.
func TestRuleMetricsInvariants(t *testing.T) {
	for _, naive := range []bool{false, true} {
		l, rules := buildChainGraph()
		rep := l.g.Run(rules, RunConfig{IterLimit: 4, Workers: 2, Naive: naive})
		if len(rep.Rules) != len(rules) {
			t.Fatalf("naive=%v: %d rule stats for %d rules", naive, len(rep.Rules), len(rules))
		}
		var ruleRows, matched, applied int64
		for _, r := range rep.Rules {
			if r.Name == "" {
				t.Errorf("naive=%v: unnamed rule stats entry", naive)
			}
			if r.Applied > r.Matched {
				t.Errorf("naive=%v: rule %s: applied %d > matched %d", naive, r.Name, r.Applied, r.Matched)
			}
			if r.Noops > r.Applied {
				t.Errorf("naive=%v: rule %s: noops %d > applied %d", naive, r.Name, r.Noops, r.Applied)
			}
			if naive && r.DeltaQueries != 0 {
				t.Errorf("naive=true: rule %s ran %d delta queries", r.Name, r.DeltaQueries)
			}
			ruleRows += r.RowsScanned
			matched += r.Matched
			applied += r.Applied
		}
		if ruleRows != rep.RowsScanned {
			t.Errorf("naive=%v: per-rule rows %d != total %d", naive, ruleRows, rep.RowsScanned)
		}
		var iterMatches int64
		for _, it := range rep.PerIter {
			iterMatches += int64(it.Matches)
		}
		if applied != iterMatches {
			t.Errorf("naive=%v: per-rule applied %d != per-iter matches %d", naive, applied, iterMatches)
		}
		// No MatchLimit was hit, so every found match was applied.
		if matched != applied {
			t.Errorf("naive=%v: matched %d != applied %d without truncation", naive, matched, applied)
		}
	}
}

// TestRuleMetricsNoopDetection: in naive mode every iteration re-applies
// the previous iterations' matches, which the effect counters must
// classify as no-ops.
func TestRuleMetricsNoopDetection(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	a, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	b, _ := g.Insert(l.Num, I64Value(g.I64, 2))
	g.Insert(l.Add, a, b)
	rep := g.Run([]*Rule{commRule(l.Add)}, RunConfig{IterLimit: 4, Naive: true})
	if !rep.Saturated() {
		t.Fatalf("stop = %s, want saturated", rep.Stop)
	}
	rs := rep.Rules[0]
	// Iteration 1: one productive match. Iteration 2: both orientations
	// re-match and change nothing.
	if rs.Applied < 3 || rs.Noops != rs.Applied-1 {
		t.Errorf("rule stats = %+v, want exactly one productive apply", rs)
	}
}

// TestTaskRowsSumToRowsScanned: each iteration's RowsScanned equals the
// sum of the rows args on the Recorder's worker-lane match spans — the
// invariant that per-task accounting loses no rows.
func TestTaskRowsSumToRowsScanned(t *testing.T) {
	l, rules := buildChainGraph()
	rec := obs.NewRecorder()
	rep := l.g.Run(rules, RunConfig{IterLimit: 4, Workers: 4, MatchShards: 8, Recorder: rec})
	// Spans come back sorted by start time; every task span starts inside
	// the engine-lane match phase of its iteration.
	var sums []int64
	tasks := 0
	for _, ev := range rec.Events() {
		switch {
		case ev.Lane == obs.LaneEngine && ev.Cat == "phase" && ev.Name == "match":
			sums = append(sums, 0)
		case ev.Lane >= obs.LaneWorker && ev.Cat == "match":
			sums[len(sums)-1] += ev.Args["rows"]
			tasks++
		}
	}
	if len(sums) != len(rep.PerIter) || tasks == 0 {
		t.Fatalf("%d match phases with %d task spans for %d iterations", len(sums), tasks, len(rep.PerIter))
	}
	for i, it := range rep.PerIter {
		if sums[i] != it.RowsScanned {
			t.Errorf("iter %d: task rows sum %d != rows scanned %d", i+1, sums[i], it.RowsScanned)
		}
	}
}

// TestDeltaRowsVsRowsScanned: a semi-naive iteration that produced match
// tasks scans at least its frontier (each delta sub-query walks the
// frontier rows).
func TestDeltaRowsVsRowsScanned(t *testing.T) {
	l, rules := buildChainGraph()
	rep := l.g.Run(rules, RunConfig{IterLimit: 4, Workers: 2})
	for i, it := range rep.PerIter {
		if !it.SemiNaive || it.RowsScanned == 0 {
			continue
		}
		if int64(it.DeltaRows) > it.RowsScanned {
			t.Errorf("iter %d: delta rows %d > rows scanned %d", i+1, it.DeltaRows, it.RowsScanned)
		}
	}
}

// TestRuleMetricsWorkerIndependent: per-rule totals are identical at every
// worker count, in both match modes — metrics describe the (deterministic)
// computation, not the schedule. Time fields are excluded; everything
// counted must agree exactly.
func TestRuleMetricsWorkerIndependent(t *testing.T) {
	type counts struct {
		Matched, Applied, Noops, RowsScanned, DeltaQueries, FullScans int64
	}
	for _, naive := range []bool{false, true} {
		var want []counts
		for _, workers := range []int{1, 2, 8} {
			l, rules := buildChainGraph()
			rep := l.g.Run(rules, RunConfig{IterLimit: 4, Workers: workers, MatchShards: 8, Naive: naive})
			got := make([]counts, len(rep.Rules))
			for i, r := range rep.Rules {
				got[i] = counts{r.Matched, r.Applied, r.Noops, r.RowsScanned, r.DeltaQueries, r.FullScans}
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("naive=%v workers=%d rule %s: %+v, want (serial) %+v",
						naive, workers, rep.Rules[i].Name, got[i], want[i])
				}
			}
		}
	}
}

// TestRuleMetricsGauges: a run with a zero RunConfig reports one
// RuleStats per rule and fills every iteration's census, consistent with
// the final report.
func TestRuleMetricsGauges(t *testing.T) {
	l, rules := buildChainGraph()
	rep := l.g.Run(rules, RunConfig{})
	if len(rep.Rules) != len(rules) {
		t.Fatalf("%d rule stats for %d rules", len(rep.Rules), len(rules))
	}
	for i, rs := range rep.Rules {
		if rs.Name != rules[i].Name {
			t.Errorf("rule stats %d named %q, want %q", i, rs.Name, rules[i].Name)
		}
	}
	for i, it := range rep.PerIter {
		if it.Classes == 0 || it.LiveRows == 0 {
			t.Errorf("iter %d: census not populated: %+v", i+1, it)
		}
	}
	last := rep.PerIter[len(rep.PerIter)-1]
	if last.Classes != rep.Classes {
		t.Errorf("last iteration classes %d != report classes %d", last.Classes, rep.Classes)
	}
}

// TestRunReportMerge: Merge sums the counters, keeps the final-state
// fields from the merged-in report, and folds rule stats by name.
func TestRunReportMerge(t *testing.T) {
	a := RunReport{
		Iterations: 2, Stop: StopSaturated, Nodes: 10, Classes: 4,
		Elapsed: 5 * time.Millisecond, MatchTime: time.Millisecond,
		RowsScanned: 100,
		PerIter:     []IterStats{{Matches: 1}, {Matches: 2}},
		Rules:       []RuleStats{{Name: "comm", Matched: 3, Applied: 3}},
	}
	b := RunReport{
		Iterations: 1, Stop: StopIterLimit, Nodes: 20, Classes: 6,
		Elapsed: time.Millisecond, MatchTime: time.Millisecond,
		RowsScanned: 50, Workers: 4,
		PerIter: []IterStats{{Matches: 5}},
		Rules: []RuleStats{
			{Name: "comm", Matched: 2, Applied: 1, Noops: 1},
			{Name: "assoc", Matched: 7, Applied: 7},
		},
	}
	a.Merge(b)
	if a.Iterations != 3 || a.RowsScanned != 150 || a.Elapsed != 6*time.Millisecond {
		t.Errorf("summed fields wrong: %+v", a)
	}
	if a.Nodes != 20 || a.Classes != 6 || a.Stop != StopIterLimit || a.Workers != 4 {
		t.Errorf("final-state fields wrong: %+v", a)
	}
	if len(a.PerIter) != 3 {
		t.Errorf("per-iter entries = %d, want 3", len(a.PerIter))
	}
	if len(a.Rules) != 2 || a.Rules[0].Name != "comm" || a.Rules[1].Name != "assoc" {
		t.Fatalf("merged rules = %+v", a.Rules)
	}
	if a.Rules[0].Matched != 5 || a.Rules[0].Applied != 4 || a.Rules[0].Noops != 1 {
		t.Errorf("comm totals wrong: %+v", a.Rules[0])
	}
	// Merging into an empty report copies the rules, so later merges
	// never write through to a merged-in report.
	var total RunReport
	total.Merge(b)
	total.Merge(b)
	if total.Rules[0].Matched != 4 || b.Rules[0].Matched != 2 {
		t.Errorf("empty-report merges: total %+v, merged-in %+v", total.Rules, b.Rules)
	}
}

// TestRunReportJSONRoundTrip: the stats-JSON schema survives a
// marshal/unmarshal round trip with every counted field intact.
func TestRunReportJSONRoundTrip(t *testing.T) {
	l, rules := buildChainGraph()
	rep := l.g.Run(rules, RunConfig{IterLimit: 3, Workers: 2})
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"iterations"`, `"rows_scanned"`, `"match_ns"`, `"per_iter"`, `"rules"`, `"delta_queries"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("stats JSON missing %s", key)
		}
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Err is json:"-"; clear it for the comparison (it is nil here anyway).
	rep.Err = nil
	if back.Iterations != rep.Iterations || back.RowsScanned != rep.RowsScanned ||
		back.MatchTime != rep.MatchTime || back.Stop != rep.Stop {
		t.Errorf("round trip changed scalars: %+v vs %+v", back, rep)
	}
	if len(back.Rules) != len(rep.Rules) {
		t.Fatalf("round trip changed rule count: %d vs %d", len(back.Rules), len(rep.Rules))
	}
	for i := range back.Rules {
		if back.Rules[i] != rep.Rules[i] {
			t.Errorf("rule %d changed: %+v vs %+v", i, back.Rules[i], rep.Rules[i])
		}
	}
	if len(back.PerIter) != len(rep.PerIter) {
		t.Fatalf("round trip changed iteration count")
	}
	for i := range back.PerIter {
		if back.PerIter[i].RowsScanned != rep.PerIter[i].RowsScanned ||
			back.PerIter[i].Matches != rep.PerIter[i].Matches ||
			back.PerIter[i].Classes != rep.PerIter[i].Classes {
			t.Errorf("iter %d changed: %+v vs %+v", i+1, back.PerIter[i], rep.PerIter[i])
		}
	}
}

// TestRunTraceSpans: a run with a recorder emits engine-lane phase spans
// and worker-lane match spans, and the rendered trace validates.
func TestRunTraceSpans(t *testing.T) {
	rec := obs.NewRecorder()
	l, rules := buildChainGraph()
	l.g.Run(rules, RunConfig{IterLimit: 3, Workers: 2, MatchShards: 4, Recorder: rec})
	var engine, worker, run int
	for _, ev := range rec.Events() {
		switch {
		case ev.Lane == obs.LaneEngine && ev.Name == "run":
			run++
		case ev.Lane == obs.LaneEngine:
			engine++
		case ev.Lane >= obs.LaneWorker:
			worker++
		}
	}
	if run != 1 {
		t.Errorf("run spans = %d, want 1", run)
	}
	if engine == 0 || worker == 0 {
		t.Errorf("engine spans = %d, worker spans = %d, want both > 0", engine, worker)
	}
	var sb strings.Builder
	if err := rec.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ValidateTrace([]byte(sb.String()))
	if err != nil {
		t.Fatalf("trace from run does not validate: %v", err)
	}
	if spans != rec.Len() {
		t.Errorf("validated %d spans, recorded %d", spans, rec.Len())
	}
}

// TestFormatRuleStats: the table renders one aligned row per rule in
// declaration order.
func TestFormatRuleStats(t *testing.T) {
	out := FormatRuleStats([]RuleStats{
		{Name: "comm-add", Matched: 10, Applied: 8, Noops: 2, RowsScanned: 40, DeltaQueries: 3, FullScans: 1},
		{Name: "comm-mul"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "comm-add") || !strings.HasPrefix(lines[2], "comm-mul") {
		t.Errorf("rows out of declaration order:\n%s", out)
	}
	if !strings.Contains(lines[0], "matched") || !strings.Contains(lines[0], "delta") {
		t.Errorf("header missing columns: %s", lines[0])
	}
}

// TestFormatIterStats: one indented line per iteration record, numbered
// from 1, naming the match mode.
func TestFormatIterStats(t *testing.T) {
	out := FormatIterStats([]IterStats{
		{Matches: 4, Unions: 1, Nodes: 15, DeltaRows: 8, RowsScanned: 7,
			MatchTime: time.Millisecond, ApplyTime: 2 * time.Microsecond, RebuildTime: 3 * time.Nanosecond, RebuildPasses: 1},
		{SemiNaive: true, Matches: 3, Nodes: 16, DeltaRows: 7, RowsScanned: 9, RebuildPasses: 2},
	})
	want := "  iter 1 (full): 4 matches, 1 unions, 15 nodes, 8 delta rows, 7 scanned, match 1ms, apply 2µs, rebuild 3ns (1 passes)\n" +
		"  iter 2 (delta): 3 matches, 0 unions, 16 nodes, 7 delta rows, 9 scanned, match 0s, apply 0s, rebuild 0s (2 passes)\n"
	if out != want {
		t.Errorf("got:\n%s\nwant:\n%s", out, want)
	}
}
