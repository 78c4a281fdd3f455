package bench

import (
	"fmt"
	"testing"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/obs"
	"dialegg/internal/rules"
)

// BenchmarkSaturateParallel measures the parallel match phase on the
// repository's largest saturation workload, the NMM matmul chains (the
// Table 2 scalability study): the full DialEgg pipeline at 1, 2, 4, and
// 8 workers. Saturation dominates the chain pipeline, and the applied
// rewrites are identical at every worker count (see
// TestParallelDiffBenchWorkloads), so the ratio between the workers=1 and
// workers=N bars is the match-phase speedup.
func BenchmarkSaturateParallel(b *testing.B) {
	chainCfg := egraph.RunConfig{
		NodeLimit:  2_000_000,
		MatchLimit: 2_000_000,
		TimeLimit:  240 * time.Second,
		IterLimit:  120,
	}
	for _, n := range []int{8, 16} {
		dims := NMMDims(n)
		src := MatmulChainSource(fmt.Sprintf("mm%d", n), dims)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("chain%d/workers%d", n, workers), func(b *testing.B) {
				var matchTime, satTime time.Duration
				for i := 0; i < b.N; i++ {
					reg := dialects.NewRegistry()
					m, err := mlir.ParseModule(src, reg)
					if err != nil {
						b.Fatal(err)
					}
					cfg := chainCfg
					cfg.Workers = workers
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
					matchTime += rep.SatMatch
					satTime += rep.Saturation
				}
				b.ReportMetric(float64(matchTime.Nanoseconds())/float64(b.N), "match-ns/op")
				b.ReportMetric(float64(satTime.Nanoseconds())/float64(b.N), "saturate-ns/op")
			})
		}
	}
}

// simulateMakespan list-schedules the measured task durations onto
// `workers` identical workers in plan order — each task goes to the
// earliest-free worker, exactly how the match pool drains its task
// queue — and returns the resulting wall time.
func simulateMakespan(tasks []time.Duration, workers int) time.Duration {
	free := make([]time.Duration, workers)
	for _, d := range tasks {
		min := 0
		for w := 1; w < workers; w++ {
			if free[w] < free[min] {
				min = w
			}
		}
		free[min] += d
	}
	var makespan time.Duration
	for _, f := range free {
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// taskTimesPerIter reads the match task durations back from a recorder's
// spans, one slice per iteration: each engine-lane match phase opens an
// iteration, and the worker-lane match spans that follow it (the events
// are sorted by start time) are its tasks, in execution order.
func taskTimesPerIter(rec *obs.Recorder) [][]time.Duration {
	var iters [][]time.Duration
	for _, ev := range rec.Events() {
		switch {
		case ev.Lane == obs.LaneEngine && ev.Cat == "phase" && ev.Name == "match":
			iters = append(iters, nil)
		case ev.Lane >= obs.LaneWorker && ev.Cat == "match":
			iters[len(iters)-1] = append(iters[len(iters)-1], ev.Dur)
		}
	}
	return iters
}

// BenchmarkMatchMakespanProjection measures every match task's serial
// cost (Workers=1, MatchShards=8, read from the Recorder's worker-lane
// match spans) and list-schedules each iteration's durations onto 2/4/8
// simulated workers. On a multi-core host the
// pool realizes this makespan directly, so proj-speedup-Nw is the
// match-phase speedup the measured shard balance supports — a
// measurement that stays meaningful on single-core CI, where wall-clock
// bars cannot separate.
func BenchmarkMatchMakespanProjection(b *testing.B) {
	for _, n := range []int{8, 16} {
		dims := NMMDims(n)
		src := MatmulChainSource(fmt.Sprintf("mm%d", n), dims)
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			var serialMatch time.Duration
			makespans := map[int]time.Duration{2: 0, 4: 0, 8: 0}
			for i := 0; i < b.N; i++ {
				reg := dialects.NewRegistry()
				m, err := mlir.ParseModule(src, reg)
				if err != nil {
					b.Fatal(err)
				}
				rec := obs.NewRecorder()
				cfg := egraph.RunConfig{
					NodeLimit:   2_000_000,
					MatchLimit:  2_000_000,
					TimeLimit:   240 * time.Second,
					IterLimit:   120,
					Workers:     1,
					MatchShards: 8,
					Recorder:    rec,
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
				for _, taskTimes := range taskTimesPerIter(rec) {
					for _, d := range taskTimes {
						serialMatch += d
					}
					for w := range makespans {
						makespans[w] += simulateMakespan(taskTimes, w)
					}
				}
			}
			b.ReportMetric(float64(serialMatch.Nanoseconds())/float64(b.N), "serial-match-ns/op")
			for _, w := range []int{2, 4, 8} {
				b.ReportMetric(float64(serialMatch)/float64(makespans[w]), fmt.Sprintf("proj-speedup-%dw", w))
			}
		})
	}
}
