package bench

import (
	"fmt"
	"strings"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
	"dialegg/internal/sched"
)

// Bench2Mode is one matching mode's measurement of a benchmark's
// saturation run: the phase times, the total match-phase row visits, and
// the visits from the second iteration on (the first iteration is a full
// match in both modes, so the tail is where semi-naive matching differs).
// Throttled and Limited count scheduler interventions (rule-iterations
// skipped by a backoff ban / truncated by a cap); they are zero for the
// unscheduled modes and deterministic for the scheduled one.
type Bench2Mode struct {
	Iterations      int     `json:"iterations"`
	Matches         int     `json:"matches"`
	MatchMS         float64 `json:"match_ms"`
	ApplyMS         float64 `json:"apply_ms"`
	RebuildMS       float64 `json:"rebuild_ms"`
	RowsScanned     int64   `json:"rows_scanned"`
	RowsScannedTail int64   `json:"rows_scanned_tail"`
	Throttled       int64   `json:"throttled,omitempty"`
	Limited         int64   `json:"limited,omitempty"`
}

// Bench2SchedRef is the fixed reference strategy of the -bench2 scheduled
// column: not a tuned optimum (egg-tune owns those) but a stable probe
// whose deterministic intervention counts testdata/bench2.golden pins
// across engine changes.
var Bench2SchedRef = sched.Backoff{Threshold: 128, Factor: 2, BanLength: 5}

// Bench2Row compares naive and semi-naive matching on one benchmark,
// plus a semi-naive run under the Bench2SchedRef backoff scheduler.
// ScanRatioTail is naive tail visits / semi-naive tail visits — the
// row-visit reduction semi-naive matching delivers after iteration 1.
// ScanRatioSched is unscheduled semi-naive visits / scheduled visits.
type Bench2Row struct {
	Benchmark      string     `json:"benchmark"`
	Naive          Bench2Mode `json:"naive"`
	SemiNaive      Bench2Mode `json:"semi_naive"`
	Sched          Bench2Mode `json:"sched"`
	ScanRatioTail  float64    `json:"scan_ratio_tail"`
	ScanRatioSched float64    `json:"scan_ratio_sched"`
}

// runBench2Mode saturates one benchmark end-to-end in the given mode and
// folds its run report into a Bench2Mode. Workers is pinned to 1 so the
// phase times measure the engine, not the pool.
func runBench2Mode(b *Benchmark, naive bool, scheduler sched.Scheduler) (Bench2Mode, error) {
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(b.Source, reg)
	if err != nil {
		return Bench2Mode{}, fmt.Errorf("bench %s: parse: %w", b.Name, err)
	}
	cfg := b.RunConfig
	cfg.Scheduler = scheduler
	cfg.Workers = 1
	cfg.Naive = naive
	opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: b.Rules, RunConfig: cfg})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		return Bench2Mode{}, fmt.Errorf("bench %s: dialegg: %w", b.Name, err)
	}
	mode := Bench2Mode{
		Iterations:  rep.Run.Iterations,
		MatchMS:     float64(rep.Run.MatchTime.Microseconds()) / 1e3,
		ApplyMS:     float64(rep.Run.ApplyTime.Microseconds()) / 1e3,
		RebuildMS:   float64(rep.Run.RebuildTime.Microseconds()) / 1e3,
		RowsScanned: rep.Run.RowsScanned,
	}
	for i, it := range rep.Run.PerIter {
		mode.Matches += it.Matches
		if i >= 1 {
			mode.RowsScannedTail += it.RowsScanned
		}
		for _, d := range it.Sched {
			switch d.Action {
			case "skip":
				mode.Throttled++
			case "limit":
				mode.Limited++
			}
		}
	}
	return mode, nil
}

// Bench2Benchmarks is the -bench2 workload set: the paper's five
// benchmarks plus a 20-matmul NMM chain, whose saturation is big enough
// for the match-phase wall-clock difference to rise above timer noise.
func Bench2Benchmarks(scale Scale) []*Benchmark {
	benchs := DefaultBenchmarks(scale)
	return append(benchs, &Benchmark{
		Name:      "20MM",
		InputSize: "20-matmul chain",
		Source:    MatmulChainSource("mm20", NMMDims(20)),
		FuncName:  "mm20",
		Rules:     rules.MatmulChain(),
		RunConfig: egraph.RunConfig{
			NodeLimit:  2_000_000,
			MatchLimit: 2_000_000,
			TimeLimit:  240 * time.Second,
			IterLimit:  120,
		},
	})
}

// RunBench2 measures every benchmark once per matching mode, then once
// more under the reference backoff scheduler (semi-naive).
func RunBench2(benchs []*Benchmark) ([]Bench2Row, error) {
	var out []Bench2Row
	for _, b := range benchs {
		naive, err := runBench2Mode(b, true, nil)
		if err != nil {
			return out, err
		}
		semi, err := runBench2Mode(b, false, nil)
		if err != nil {
			return out, err
		}
		scheduled, err := runBench2Mode(b, false, Bench2SchedRef)
		if err != nil {
			return out, err
		}
		row := Bench2Row{Benchmark: b.Name, Naive: naive, SemiNaive: semi, Sched: scheduled}
		if semi.RowsScannedTail > 0 {
			row.ScanRatioTail = float64(naive.RowsScannedTail) / float64(semi.RowsScannedTail)
		}
		if scheduled.RowsScanned > 0 {
			row.ScanRatioSched = float64(semi.RowsScanned) / float64(scheduled.RowsScanned)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatBench2 renders the comparison as an aligned text table of the
// deterministic counters (no timings), which TestBench2Golden pins.
func FormatBench2(rows []Bench2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %9s %9s | %9s %9s | %7s | %9s %5s %5s | %7s\n",
		"benchmark", "iters", "naive", "semi", "naiveTail", "semiTail", "ratio", "sched", "thr", "cap", "ratio")
	fmt.Fprintf(&b, "%-10s %6s %9s %9s | %9s %9s | %7s | %9s %5s %5s | %7s\n",
		"", "", "rows", "rows", "rows", "rows", "", "rows", "", "", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %9d %9d | %9d %9d | %6.2fx | %9d %5d %5d | %6.2fx\n",
			r.Benchmark, r.SemiNaive.Iterations,
			r.Naive.RowsScanned, r.SemiNaive.RowsScanned,
			r.Naive.RowsScannedTail, r.SemiNaive.RowsScannedTail,
			r.ScanRatioTail,
			r.Sched.RowsScanned, r.Sched.Throttled, r.Sched.Limited,
			r.ScanRatioSched)
	}
	return b.String()
}
