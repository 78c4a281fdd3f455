package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dialegg/internal/bench"
	"dialegg/internal/obs"
)

// tinyConfig shrinks every workload so a run takes a fraction of a second
// plus its output checks. Traced runs span two chunks of the in-process
// loop.
func tinyConfig(seed int64, trace bool) runConfig {
	cfg := runConfig{seed: seed, seconds: 0.1, setups: 1, chunk: 100 * time.Millisecond, chain: 2,
		rate: 100, hot: 4, sample: 4, funcs: 2, ops: 12}
	if trace {
		cfg.seconds = 0.2
		cfg.rec = obs.NewRecorder()
	}
	return cfg
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestWorkloads runs every workload at tiny size twice per mode with the
// same seed: each run must report every declared metric in its declared
// unit with no failed operation, and the deterministic counters must
// repeat exactly. paper5's allocs_per_op repeats to within 0.1%: the
// runtime and the match-phase worker pool allocate a few objects more or
// less from run to run. With -short each runs once (about 6 s in all);
// every run still fails a check if its counters differ between the output
// checks before and after its timed phase.
func TestWorkloads(t *testing.T) {
	runs := 2
	if testing.Short() {
		runs = 1
	}
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloadOrder))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadOrder[i])
		}
	}
	for _, w := range workloadOrder {
		for _, trace := range []bool{false, true} {
			declared, same, near := sp.EndToEnd, []string{"cycles_speedup_geomean"}, []string(nil)
			if w == "paper5" {
				near = []string{"allocs_per_op"}
			}
			if trace {
				declared = sp.PerLayer
				same = []string{"egraph.saturate.iterations", "egraph.saturate.nodes", "egraph.saturate.rows_scanned"}
			}
			var first *runRecord
			for run := 0; run < runs; run++ {
				res, err := workloads[w](tinyConfig(7, trace))
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w, trace, err)
				}
				var stdout, stderr bytes.Buffer
				rec, err := report(&stdout, &stderr, w, res, declared)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w, trace, err)
				}
				if !rec.Correct || rec.Attempted == 0 {
					t.Fatalf("%s trace=%v: %d of %d operations failed:\n%s", w, trace, rec.Failed, rec.Attempted, stderr.String())
				}
				if first == nil {
					first = rec
					continue
				}
				for _, name := range same {
					if a, b := first.Metrics[name].Value, rec.Metrics[name].Value; a != b {
						t.Errorf("%s: %s = %v then %v with the same seed", w, name, a, b)
					}
				}
				for _, name := range near {
					if a, b := first.Metrics[name].Value, rec.Metrics[name].Value; math.Abs(a-b) > 1e-3*a {
						t.Errorf("%s: %s = %v then %v with the same seed", w, name, a, b)
					}
				}
			}
		}
	}
}

func TestServeMixSeedChangesStream(t *testing.T) {
	plan := func(seed int64) []string {
		in, err := genMixInputs(tinyConfig(seed, false), 20)
		if err != nil {
			t.Fatal(err)
		}
		var srcs []string
		for _, m := range in.plan {
			srcs = append(srcs, m.src)
		}
		return srcs
	}
	a, b, c := plan(1), plan(1), plan(2)
	if strings.Join(a, "") != strings.Join(b, "") {
		t.Error("the same seed made different module streams")
	}
	if strings.Join(a, "") == strings.Join(c, "") {
		t.Error("seeds 1 and 2 made the same module stream")
	}
}

func TestProfileOpsSelfTime(t *testing.T) {
	rec := obs.NewRecorder()
	at := func(d time.Duration) time.Time { return rec.Epoch().Add(d) }
	op := map[string]int64{"op": 1}
	rec.Complete(obs.LanePipeline, "op", opSpan, at(0), 10*time.Millisecond, op)
	rec.Complete(obs.LanePipeline, "layer", layerParse, at(1*time.Millisecond), 3*time.Millisecond, op)
	rec.Complete(obs.LanePipeline, "layer", layerPrint, at(5*time.Millisecond), 4*time.Millisecond, op)
	rec.Complete(obs.LanePipeline, "layer", layerParse, at(20*time.Millisecond), time.Millisecond, map[string]int64{"op": 2})
	profiles := profileOps(rec.Events())
	if len(profiles) != 1 {
		t.Fatalf("got %d ops with a root span, want 1", len(profiles))
	}
	p := profiles[1]
	if p.dur != 10*time.Millisecond || p.self[opSpan] != 3*time.Millisecond || p.self[layerParse] != 3*time.Millisecond {
		t.Errorf("op %v, self %v", p.dur, p.self)
	}
	if c := p.coverage(); math.Abs(c-0.7) > 1e-9 {
		t.Errorf("coverage = %v, want 0.7", c)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Error(err)
	}
}

// TestTracedCompileSpansEveryLayer checks that the optimizer's own phase
// spans, with the parse and print around them, time every layer of a
// compile and nearly all of it, without changing its output.
func TestTracedCompileSpansEveryLayer(t *testing.T) {
	b := bench.DefaultBenchmarks(bench.ScaleCI)[0]
	want, _, err := compile(nil, b.Source, b.Rules)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	out, st, err := tracedCompile(rec, 1, b.Source, b.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("%s: traced output differs from the untraced one", b.Name)
	}
	if st.loadCalls != 1 || st.iterations == 0 || st.nodes == 0 {
		t.Errorf("%s: counters %+v", b.Name, st)
	}
	p := profileOps(rec.Events())[1]
	if p == nil {
		t.Fatal("no root span for op 1")
	}
	for _, l := range layers {
		if p.self[l] <= 0 {
			t.Errorf("%s: layer %s has self time %v", b.Name, l, p.self[l])
		}
	}
	if c := p.coverage(); c < 0.9 {
		t.Errorf("%s: layer spans cover %.3f of the compile", b.Name, c)
	}
}

func TestChainOptimum(t *testing.T) {
	for _, tc := range []struct {
		dims []int64
		want int64
	}{
		{bench.TwoMMDims, 20_000},
		{bench.ThreeMMDims, 1_162_500},
		{bench.NMMDims(20), 4_221_000},
	} {
		if got := chainOptimum(tc.dims); got != tc.want {
			t.Errorf("chainOptimum(%v) = %d, want %d", tc.dims, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareRuns(t *testing.T) {
	sp := loadSpec(t)
	runs := func(w string, vals map[string][]float64) []runRecord {
		var out []runRecord
		for i := 0; i < 3; i++ {
			r := runRecord{Workload: w, Correct: true, Metrics: map[string]metricValue{}}
			for name, v := range vals {
				if i < len(v) {
					r.Metrics[name] = metricValue{Value: v[i]}
				}
			}
			out = append(out, r)
		}
		return out
	}
	oldRuns := runs("paper5", map[string][]float64{
		"compile_ms_p50":         {1.00, 1.01, 0.99},
		"compile_ms_p90":         {4.0, 4.0, 4.0},
		"hit_ms_p50":             {0.10, 0.10, 0.10},
		"hit_ms_p90":             {1.0, 1.0, 1.0},
		"cycles_speedup_geomean": {4.6, 4.6, 4.6},
		"egraph.saturate.ms":     {0.3, 0.3, 0.3},
		"peak_rss_mb":            {20, 20, 20},
		"setup_s":                {0.6, 1.0, 1.4},
		"cpu_ms_per_op":          {0.6, 1.0, 1.4},
		"allocs_per_op":          {90, 100, 110},
	})
	newRuns := runs("paper5", map[string][]float64{
		"compile_ms_p50":         {1.05, 1.04, 1.06}, // +5% < 25%
		"compile_ms_p90":         {5.5, 5.5, 5.5},    // +37.5% > 25%
		"hit_ms_p50":             {0.05, 0.20, 0.10}, // spread far above the bound
		"hit_ms_p90":             {0.5, 0.5, 0.5},    // -50%
		"cycles_speedup_geomean": {4.5, 4.5, 4.5},    // lower is worse here
		"egraph.saturate.ms":     {0.9, 0.9, 0.9},    // per-layer: no bound
		// Old spreads above the bound: the sets decide only when apart.
		"setup_s":       {1.6, 2.0, 2.4}, // median +100%, every new run worse
		"cpu_ms_per_op": {1.3, 1.2, 1.5}, // median +30%, but the sets overlap
		"allocs_per_op": {50, 45, 55},    // median -50%, every new run better
	})
	want := map[string]string{
		"compile_ms_p50":         verdictOK,
		"compile_ms_p90":         verdictRegression,
		"hit_ms_p50":             verdictUnresolved,
		"hit_ms_p90":             verdictBetter,
		"cycles_speedup_geomean": verdictRegression,
		"egraph.saturate.ms":     verdictInfo,
		"peak_rss_mb":            verdictMissing,
		"setup_s":                verdictRegression,
		"cpu_ms_per_op":          verdictUnresolved,
		"allocs_per_op":          verdictBetter,
	}
	rows := compareRuns(sp, oldRuns, newRuns)
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.verdict != want[r.metric] {
			t.Errorf("%s: verdict %s, want %s", r.metric, r.verdict, want[r.metric])
		}
	}
}

func TestCompareMain(t *testing.T) {
	line, err := json.Marshal(runRecord{Workload: "mm20", Correct: true,
		Metrics: map[string]metricValue{"compile_ms_p50": {Value: 80, Unit: "ms"}}})
	if err != nil {
		t.Fatal(err)
	}
	results := filepath.Join(t.TempDir(), "a.results.jsonl")
	if err := os.WriteFile(results, bytes.Repeat(append(line, '\n'), 3), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := compareMain([]string{"-spec", "../BENCHMARK.json", results, results}, &stdout, &stderr); code != 0 {
		t.Errorf("identical result files: exit %d, want 0 (stderr %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "compile_ms_p50") {
		t.Errorf("compare printed no row for the metric:\n%s", stdout.String())
	}
}
