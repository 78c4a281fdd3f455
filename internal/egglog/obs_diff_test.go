package egglog_test

// Differential tests for the observability layer: metrics must describe
// the deterministic computation, not the schedule — so per-rule totals are
// identical at every worker count, and turning tracing on must not change
// a single observable output.

import (
	"fmt"
	"testing"

	"dialegg/internal/egglog"
	"dialegg/internal/obs"
)

// metricsFingerprint executes src and folds every counted (non-time)
// metric field into a string.
func metricsFingerprint(t *testing.T, src string, workers int, naive bool) string {
	t.Helper()
	p := egglog.NewProgram()
	p.RunDefaults.Workers = workers
	p.RunDefaults.Naive = naive
	if _, err := p.ExecuteString(src); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	out := ""
	for _, r := range p.LastRun.Rules {
		out += fmt.Sprintf("%s matched %d applied %d noops %d rows %d delta %d full %d\n",
			r.Name, r.Matched, r.Applied, r.Noops, r.RowsScanned, r.DeltaQueries, r.FullScans)
	}
	for i, it := range p.LastRun.PerIter {
		out += fmt.Sprintf("iter %d matches %d unions %d rebuild-unions %d rows %d delta %d classes %d live %d dead %d\n",
			i+1, it.Matches, it.Unions, it.RebuildUnions, it.RowsScanned, it.DeltaRows,
			it.Classes, it.LiveRows, it.DeadRows)
	}
	return out
}

// TestMetricsWorkerIndependent: for every differential program, the
// complete set of counted metrics is identical with a serial and an
// 8-worker match phase.
func TestMetricsWorkerIndependent(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			serial := metricsFingerprint(t, tc.src, 1, false)
			parallel := metricsFingerprint(t, tc.src, 8, false)
			if serial != parallel {
				t.Errorf("metrics diverged between workers=1 and workers=8:\n--- serial ---\n%s--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}

// TestObservabilityDoesNotPerturb: running with a recorder enabled
// produces exactly the same observable outputs (extractions, checks,
// final graph shape) as running with observability off.
func TestObservabilityDoesNotPerturb(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			plain := runFingerprint(t, tc.src, 4, false)

			p := egglog.NewProgram()
			p.RunDefaults.Workers = 4
			p.RunDefaults.Recorder = obs.NewRecorder()
			results, err := p.ExecuteString(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			out := ""
			for _, r := range results {
				switch r.Command {
				case "extract":
					out += fmt.Sprintf("extract %s cost %d\n", r.Term, r.Cost)
				case "run", "run-schedule":
					out += fmt.Sprintf("run iters %d stop %s nodes %d classes %d\n",
						r.Report.Iterations, r.Report.Stop, r.Report.Nodes, r.Report.Classes)
				case "check":
					out += "check ok\n"
				}
			}
			g := p.Graph()
			out += fmt.Sprintf("final nodes %d classes %d unions %d\n",
				g.NumNodes(), g.NumClasses(), g.UnionCount())
			if out != plain {
				t.Errorf("observability changed the computation:\n--- plain ---\n%s--- instrumented ---\n%s", plain, out)
			}
			if p.RunDefaults.Recorder.Len() == 0 {
				t.Errorf("recorder captured no events")
			}
		})
	}
}

// TestScheduleMergesRuleMetrics: a run-schedule aggregates per-rule
// metrics across its items instead of dropping all but the last run.
func TestScheduleMergesRuleMetrics(t *testing.T) {
	src := diffPrelude + `
(rewrite (Add x y) (Add y x))
(let e (Add (Num 1) (Add (Num 2) (Num 3))))
(run-schedule (repeat 2 (run 1)))
`
	p := egglog.NewProgram()
	if _, err := p.ExecuteString(src); err != nil {
		t.Fatal(err)
	}
	last := p.LastRun
	if last.Iterations < 2 {
		t.Fatalf("schedule ran %d iterations, want >= 2", last.Iterations)
	}
	if len(last.PerIter) != last.Iterations {
		t.Errorf("%d per-iter records for %d iterations", len(last.PerIter), last.Iterations)
	}
	if len(last.Rules) == 0 {
		t.Fatalf("schedule report dropped per-rule metrics")
	}
	var ruleRows, iterRows int64
	for _, r := range last.Rules {
		ruleRows += r.RowsScanned
	}
	for _, it := range last.PerIter {
		iterRows += it.RowsScanned
	}
	if ruleRows != last.RowsScanned || iterRows != last.RowsScanned {
		t.Errorf("rows: per-rule %d, per-iter %d, total %d — should all agree",
			ruleRows, iterRows, last.RowsScanned)
	}
}

// TestCommandSpans: executing run/extract/check with a recorder installed
// produces pipeline-lane command spans, and the trace validates.
func TestCommandSpans(t *testing.T) {
	rec := obs.NewRecorder()
	p := egglog.NewProgram()
	p.RunDefaults.Recorder = rec
	src := diffPrelude + `
(rewrite (Add x y) (Add y x))
(let e (Add (Num 1) (Num 2)))
(run 3)
(check (= e (Add (Num 2) (Num 1))))
(extract e)
`
	if _, err := p.ExecuteString(src); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"run": false, "check": false, "extract": false}
	for _, ev := range rec.Events() {
		if ev.Lane == obs.LanePipeline && ev.Cat == "command" {
			want[ev.Name] = true
		}
	}
	for cmd, seen := range want {
		if !seen {
			t.Errorf("no pipeline span for command %q", cmd)
		}
	}
}
