package bench

import (
	"fmt"
	"io"
	"testing"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/obs"
	"dialegg/internal/obs/journal"
	"dialegg/internal/obs/telemetry"
	"dialegg/internal/rules"
	"dialegg/internal/sched"
)

// liveGauges is the benchmark's stand-in for the serving layer's
// Observer: per-iteration gauge publication plus per-rule counter vecs,
// the work egg-serve does on every iteration when telemetry is on.
type liveGauges struct {
	iter, nodes, classes, rows *telemetry.Gauge
	matched, applied           *telemetry.Vec
}

func newLiveGauges() *liveGauges {
	reg := telemetry.NewRegistry()
	return &liveGauges{
		iter:    reg.NewGauge("bench_iter", ""),
		nodes:   reg.NewGauge("bench_nodes", ""),
		classes: reg.NewGauge("bench_classes", ""),
		rows:    reg.NewGauge("bench_rows", ""),
		matched: reg.NewCounterVec("bench_matched_total", "", "rule"),
		applied: reg.NewCounterVec("bench_applied_total", "", "rule"),
	}
}

func (l *liveGauges) ObserveIter(iter int, st *egraph.IterStats, rules []sched.RuleIterStats) {
	l.iter.Set(float64(iter))
	l.nodes.Set(float64(st.Nodes))
	l.classes.Set(float64(st.Classes))
	l.rows.Set(float64(st.LiveRows))
	for _, r := range rules {
		if r.Matched > 0 {
			l.matched.With(r.Rule).Add(uint64(r.Matched))
		}
		if r.Applied > 0 {
			l.applied.With(r.Rule).Add(uint64(r.Applied))
		}
	}
}

// BenchmarkObservabilityOverhead runs the chain-saturation workload with
// the observability layer off, with live telemetry gauges (egg-serve's
// always-on configuration), and with a live trace recorder — the
// CLI/serve configurations plain, /metrics, and --trace. Every run keeps
// its per-rule and per-iteration accounting, so "off" is also the
// --stats/--stats-json run. The off/on ratio is the cost of
// instrumentation on the hot path; the acceptance budget for the disabled
// configuration is < 2% versus the seed (the nil-recorder, nil-observer
// path is a pointer check per iteration, so "off" and "seed" should be
// indistinguishable within noise).
func BenchmarkObservabilityOverhead(b *testing.B) {
	modes := []struct {
		name  string
		live  bool
		trace bool
	}{
		{"off", false, false},
		{"live", true, false},
		{"trace", false, true},
	}
	for _, n := range []int{8, 16} {
		dims := NMMDims(n)
		src := MatmulChainSource(fmt.Sprintf("mm%d", n), dims)
		for _, mode := range modes {
			b.Run(fmt.Sprintf("chain%d/%s", n, mode.name), func(b *testing.B) {
				var satTime time.Duration
				for i := 0; i < b.N; i++ {
					reg := dialects.NewRegistry()
					m, err := mlir.ParseModule(src, reg)
					if err != nil {
						b.Fatal(err)
					}
					cfg := egraph.RunConfig{
						NodeLimit:  2_000_000,
						MatchLimit: 2_000_000,
						TimeLimit:  240 * time.Second,
						IterLimit:  120,
						Workers:    1,
					}
					if mode.trace {
						cfg.Recorder = obs.NewRecorder()
					}
					if mode.live {
						cfg.Observer = newLiveGauges()
					}
					opt := dialegg.NewOptimizer(dialegg.Options{
						RuleSources: rules.MatmulChain(),
						RunConfig:   cfg,
					})
					rep, err := opt.OptimizeModule(m)
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Run.Saturated() {
						b.Fatalf("chain %d did not saturate: %s", n, rep.Run.Stop)
					}
					satTime += rep.Saturation
				}
				b.ReportMetric(float64(satTime.Nanoseconds())/float64(b.N), "saturate-ns/op")
			})
		}
	}
}

// BenchmarkJournalOverhead runs the chain-saturation workload with the
// event journal off, on (events to io.Discard), and on with per-iteration
// snapshots — the egg-opt configurations plain, --journal, and --journal
// --snapshot-every 1. The disabled path is a nil-pointer check per
// mutation, so "off" must be indistinguishable from the seed within
// noise; the enabled ratios price full time-travel recording.
func BenchmarkJournalOverhead(b *testing.B) {
	modes := []struct {
		name      string
		journaled bool
		snapshots int
	}{
		{"off", false, 0},
		{"journal", true, 0},
		{"journal+snapshots", true, 1},
	}
	for _, n := range []int{8, 16} {
		dims := NMMDims(n)
		src := MatmulChainSource(fmt.Sprintf("mm%d", n), dims)
		for _, mode := range modes {
			b.Run(fmt.Sprintf("chain%d/%s", n, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					reg := dialects.NewRegistry()
					m, err := mlir.ParseModule(src, reg)
					if err != nil {
						b.Fatal(err)
					}
					opts := dialegg.Options{
						RuleSources: rules.MatmulChain(),
						RunConfig: egraph.RunConfig{
							NodeLimit:  2_000_000,
							MatchLimit: 2_000_000,
							TimeLimit:  240 * time.Second,
							IterLimit:  120,
							Workers:    1,
						},
					}
					if mode.journaled {
						opts.Journal = journal.NewWriter(io.Discard)
						opts.Journal.SnapshotEvery = mode.snapshots
					}
					rep, err := dialegg.NewOptimizer(opts).OptimizeModule(m)
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Run.Saturated() {
						b.Fatalf("chain %d did not saturate: %s", n, rep.Run.Stop)
					}
				}
			})
		}
	}
}
