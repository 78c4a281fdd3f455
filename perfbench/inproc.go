package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dialegg/internal/bench"
	"dialegg/internal/dialects"
	"dialegg/internal/egraph"
	"dialegg/internal/interp"
	"dialegg/internal/memo"
	"dialegg/internal/mlir"
	"dialegg/internal/obs"
	"dialegg/internal/rules"
)

// program is one distinct input of an in-process workload. want is its
// optimized output, computed at set-up.
type program struct {
	name  string
	src   string
	rules []string
	want  string
}

// referenceCheck runs a workload's own output check against an
// independent reference (the interpreter, the matrix-chain optimum) and
// returns the interpreter cycle-model speedup of the optimized programs.
type referenceCheck func(r *result, progs []*program) float64

// The measured time is cut into chunks of about cfg.chunk, each spent
// compiling for compileShare of it, answering from the cache for
// hitShare, and timing the calibration kernel for the rest, so compiles,
// hits and the kernel sample the same stretch of time and the chunk's
// times are scaled by the speed the kernel measured in it. A chunk is
// short because the machine's speed flips within a second: mm20's
// compiles went from 88 to 155 ms and back, several times a run, while a
// kernel timed once a second missed half the flips. At 100 ms each mm20
// compile gets a kernel of its own.
const (
	compileShare = 0.75
	hitShare     = 0.15
)

func runPaper5(cfg runConfig) (*result, error) {
	benchs := bench.DefaultBenchmarks(bench.ScaleCI)
	var progs []*program
	for _, b := range benchs {
		progs = append(progs, &program{name: b.Name, src: b.Source, rules: b.Rules})
	}
	return runInProcess(cfg, progs, func(r *result, _ []*program) float64 {
		return fig3Speedup(r, benchs)
	})
}

func runMM(cfg runConfig) (*result, error) {
	dims := bench.NMMDims(cfg.chain)
	fn := fmt.Sprintf("mm%d", cfg.chain)
	b := &bench.Benchmark{
		Name:      fmt.Sprintf("%dMM", cfg.chain),
		Source:    bench.MatmulChainSource(fn, dims),
		FuncName:  fn,
		Rules:     rules.MatmulChain(),
		Inputs:    func() []interp.Value { return bench.MatrixInputs(dims) },
		Tolerance: 1e-9,
	}
	progs := []*program{{name: b.Name, src: b.Source, rules: b.Rules}}
	return runInProcess(cfg, progs, func(r *result, progs []*program) float64 {
		got, err := matmulMults(progs[0].want)
		want := chainOptimum(dims)
		r.check(err == nil && got == want, "%s: optimized program does %d scalar multiplications (%v), the chain optimum is %d",
			b.Name, got, err, want)
		return fig3Speedup(r, []*bench.Benchmark{b})
	})
}

// fig3Speedup runs the Figure 3 harness, which checks every variant's
// interpreted output against the unoptimized baseline within the
// benchmark's tolerance, and returns the geometric mean of the DialEgg
// variant's cycle-model speedups.
func fig3Speedup(r *result, benchs []*bench.Benchmark) float64 {
	rows, err := bench.RunFig3(benchs)
	r.check(err == nil, "figure 3 output check: %v", err)
	var speedups []float64
	for _, row := range rows {
		for _, v := range row.Results {
			if v.Variant == bench.VariantDialEgg {
				speedups = append(speedups, v.Speedup)
			}
		}
	}
	r.check(len(speedups) == len(benchs), "figure 3 returned %d DialEgg rows for %d benchmarks", len(speedups), len(benchs))
	return geomean(speedups)
}

// runInProcess measures an in-process workload: a closed loop with one
// client compiling progs in rounds, alternating with a loop answering the
// same inputs from a memo cache, as a cache hit does.
func runInProcess(cfg runConfig, progs []*program, reference referenceCheck) (*result, error) {
	r := &result{}
	order := rand.New(rand.NewSource(cfg.seed))

	setup := func() (*memo.Cache, error) {
		cache := memo.NewCache(64 << 20)
		for _, p := range progs {
			out, _, err := compile(nil, p.src, p.rules)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			p.want = out
			canon, err := memo.CanonicalizeMLIR(p.src)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			cache.Add(memo.Key(canon, p.rules, egraph.RunConfig{}), []byte(out))
		}
		return cache, nil
	}
	cache, setupS, err := timedSetup(cfg.setups, setup, func(*memo.Cache) {})
	if err != nil {
		return nil, err
	}
	// The set-ups compiled every input, from a fresh process, as often as
	// they ran. What runs after them adds the output checks' interpreter
	// and the calibration kernel, which are not the compiler, and the timed
	// loop, where a single P lets the collector fall behind: a peak read at
	// the end moved by up to 5 MiB from run to run.
	rss := peakRSSMiB()

	before, speedup := checkPrograms(r, progs, reference)

	// compiles holds the compile times as measured, for the traced run's
	// overhead; scaledCompiles and hits hold them at the reference speed.
	var compiles, scaledCompiles, hits, canonHash, factors []float64
	var phases []opStats
	var used usage // of the compiles only, CPU time at the reference speed
	// until is the deadline share of a chunk from now: a compile that runs
	// past its phase's end delays, and does not shorten, the phases after.
	until := func(share float64) time.Time {
		return time.Now().Add(time.Duration(share * float64(cfg.chunk)))
	}
	serial(func() {
		deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			u0 := readUsage()
			c, ph := compileLoop(r, cfg.rec, progs, order, until(compileShare), int64(len(phases)))
			u := readUsage().minus(u0)
			// A compile leaves a garbage collection in flight; hits that ran
			// while it marks are slower, by an amount that depends on where
			// the chunk boundary falls in its cycle. Finish it first, untimed.
			runtime.GC()
			h, ch := hitLoop(r, cache, progs, order, until(hitShare))
			f := calibrate(until(1 - compileShare - hitShare))
			u.cpu = time.Duration(float64(u.cpu) * f)
			used = used.plus(u)
			compiles, phases = append(compiles, c...), append(phases, ph...)
			scaledCompiles, hits = append(scaledCompiles, scaled(c, f)...), append(hits, scaled(h, f)...)
			canonHash, factors = append(canonHash, ch...), append(factors, f)
		}
	})
	r.addCalibration(factors)

	after, speedupAfter := checkPrograms(r, progs, reference)
	r.check(sameCounters(before, after) && speedup == speedupAfter,
		"deterministic counters changed during the run")

	if cfg.rec == nil {
		r.add("setup_s", "s", setupS, cfg.setups)
		r.add("compile_ms_p50", "ms", median(scaledCompiles), len(compiles))
		r.add("compile_ms_p90", "ms", percentile(scaledCompiles, 0.90), len(compiles))
		r.add("hit_ms_p50", "ms", median(hits), len(hits))
		r.add("hit_ms_p90", "ms", percentile(hits, 0.90), len(hits))
		r.addPerOp(used, len(compiles))
		r.add("peak_rss_mb", "MiB", rss, 1)
		r.add("cycles_speedup_geomean", "x", speedup, len(progs))
		return r, nil
	}
	r.addGC(used, len(compiles)+len(phases))
	r.add("memo.canon_hash.ms", "ms", median(canonHash), len(canonHash))
	addLayerMetrics(r, cfg, compiles, phases, before)
	return r, nil
}

// hitLoop answers progs from cache in rounds until deadline, as a cache
// hit does: canonicalize, key, look up, each round in an order drawn from
// order. It returns each answer's time and
// its canonicalize+key part.
func hitLoop(r *result, cache *memo.Cache, progs []*program, order *rand.Rand, deadline time.Time) (hits, canonHash []float64) {
	for time.Now().Before(deadline) {
		for _, i := range order.Perm(len(progs)) {
			p := progs[i]
			t0 := time.Now()
			canon, err := memo.CanonicalizeMLIR(p.src)
			key := memo.Key(canon, p.rules, egraph.RunConfig{})
			keyed := time.Since(t0)
			val, ok := cache.Get(key)
			hits = append(hits, ms(time.Since(t0)))
			canonHash = append(canonHash, ms(keyed))
			r.check(err == nil && ok && string(val) == p.want, "%s: cached answer missing or different (%v)", p.name, err)
		}
	}
	return hits, canonHash
}

// compileLoop is a closed loop with one client: it compiles progs round
// after round, each round in an order drawn from order, until deadline,
// checking each output. A run's time depends on which input follows which
// (the caches hold the previous compile's data), so no one order is kept
// for the whole run. It runs whole rounds only, so every input is compiled
// equally often and per-op counts repeat exactly from run to run. Each
// compile starts after a forced, untimed garbage collection, as in a fresh
// egg-opt process, so where the collector's cycle stands when a compile
// starts does not depend on the compiles before it. With rec set, each compile
// is followed by a traced compile of the same input, so the traced and
// untraced times interleave and drift affects both alike; the traced
// compiles get op ids from firstOp+1 on.
func compileLoop(r *result, rec *obs.Recorder, progs []*program, order *rand.Rand, deadline time.Time, firstOp int64) ([]float64, []opStats) {
	var compiles []float64
	var phases []opStats
	opID := firstOp
	for time.Now().Before(deadline) {
		for _, i := range order.Perm(len(progs)) {
			p := progs[i]
			runtime.GC()
			t0 := time.Now()
			out, _, err := compile(nil, p.src, p.rules)
			compiles = append(compiles, ms(time.Since(t0)))
			r.check(err == nil && out == p.want, "%s: compile output differs from the expected one (%v)", p.name, err)
			if rec != nil {
				runtime.GC()
				opID++
				out, st, err := tracedCompile(rec, opID, p.src, p.rules)
				r.check(err == nil && out == p.want, "%s: traced compile output differs (%v)", p.name, err)
				phases = append(phases, st)
			}
		}
	}
	return compiles, phases
}

// checkPrograms checks that a traced compile reproduces every program's
// untraced output byte for byte, runs the workload's reference check, and
// returns the traced compiles' deterministic counters.
func checkPrograms(r *result, progs []*program, reference referenceCheck) ([]opStats, float64) {
	var counters []opStats
	for _, p := range progs {
		out, st, err := tracedCompile(nil, 0, p.src, p.rules)
		r.check(err == nil && out == p.want, "%s: traced compile output differs from the untraced one (%v)", p.name, err)
		counters = append(counters, st)
	}
	return counters, reference(r, progs)
}

// sameCounters compares the deterministic parts of two sets of traced
// compile counters.
func sameCounters(a, b []opStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.loadCalls != y.loadCalls || x.opaqueOps != y.opaqueOps || x.iterations != y.iterations ||
			x.nodes != y.nodes || x.rowsScanned != y.rowsScanned || x.matches != y.matches || x.unions != y.unions ||
			x.dagCost != y.dagCost {
			return false
		}
	}
	return true
}

// matmulMults counts the scalar multiplications of every linalg.matmul in
// a module: M·K·N for an MxK times KxN product.
func matmulMults(src string) (int64, error) {
	m, err := mlir.ParseModule(src, dialects.NewRegistry())
	if err != nil {
		return 0, err
	}
	var total int64
	var bad error
	m.Walk(func(op *mlir.Operation) bool {
		if op.Name != "linalg.matmul" || bad != nil {
			return true
		}
		a, ok1 := op.Operands[0].Type().(mlir.RankedTensorType)
		b, ok2 := op.Operands[1].Type().(mlir.RankedTensorType)
		if !ok1 || !ok2 || len(a.Shape) != 2 || len(b.Shape) != 2 {
			bad = fmt.Errorf("linalg.matmul with operand types %v, %v", op.Operands[0].Type(), op.Operands[1].Type())
			return true
		}
		total += a.Shape[0] * a.Shape[1] * b.Shape[1]
		return true
	})
	return total, bad
}

// chainOptimum is the fewest scalar multiplications any bracketing of the
// matrix chain needs (the textbook O(n³) dynamic program); matrix i is
// dims[i] x dims[i+1].
func chainOptimum(dims []int64) int64 {
	n := len(dims) - 1
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			cost[i][j] = -1
			for k := i; k < j; k++ {
				c := cost[i][k] + cost[k+1][j] + dims[i]*dims[k+1]*dims[j+1]
				if cost[i][j] < 0 || c < cost[i][j] {
					cost[i][j] = c
				}
			}
		}
	}
	return cost[0][n-1]
}
