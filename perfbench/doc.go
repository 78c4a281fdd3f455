// Command perfbench is the repository's benchmark. It compiles and serves
// MLIR through the DialEgg pipeline on three workloads, checks every
// output, and prints end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs).
//
// It is a module of its own so that it can import the repository's
// internal packages from source without being part of the repository's
// build. The root's go build/vet/test ./... do not reach it, so vet and
// test it in perfbench/ as below. Run it from the repository root;
// run.sh builds it into .bench_build/ first:
//
//	bash perfbench/run.sh -workload paper5 -seed 1 -seconds 30 -trace 0
//	bash perfbench/run.sh -workload mm20 -trace 1 -trace-file mm20.trace.json
//	bash perfbench/run.sh                 # every workload, untraced then traced, each in its own process
//	bash perfbench/run.sh -workload serve-mix -seed 2 -out change.results.jsonl
//	.bench_build/perfbench compare parent.results.jsonl change.results.jsonl
//	cd perfbench && go vet . && go test -short .   # about 6 s; without -short about 13 s
//
// A run prints one "workload metric value unit n=samples" line per metric
// it measured, then a JSON line {"correct", "attempted", "failed",
// "metrics"} holding exactly the metrics BENCHMARK.json declares: the
// end-to-end ones with -trace 0, the per-layer ones with -trace 1. It
// exits 1 when an operation or an output check failed. A declared metric
// that was not measured is an error, and no JSON line is printed.
//
// compare reads two files of such lines (-out appends one per run; use
// three or more runs a side, parent and change alternating) and judges
// each end-to-end metric × workload against its bound in BENCHMARK.json:
// REGRESSION when the new median is worse by more than the bound,
// unresolved when either side's interquartile spread exceeds it, unless
// the median moved by more than the bound and no old and new run overlap,
// which makes it REGRESSION or better. It exits 1 on a regression. bench2
// row files (BENCH_2/3/4.json) are compared with benchtab -compare.
//
// # Workloads
//
// The load comes from the one benchmark process, and -seed makes every
// input. Each workload's timed phase runs with GOMAXPROCS 1, its set-up
// and output checks with GOMAXPROCS = nproc (see Noise).
//
//   - paper5: the five §8.2 programs (Img Conv, Vec Norm, Poly, 2MM, 3MM;
//     CI-scale sources), compiled in rounds in a closed loop by one
//     client. Each compile is parse → dialegg.OptimizeModule with default
//     options → canonical print. Why: small single-function modules where
//     rule loading, extraction and back-translation are half of each
//     compile, so the rule-template item shows here while matcher work
//     barely matters outside Poly, which sets compile_ms_p90. The seed
//     only draws the order of each round.
//   - mm20: the 20-matmul chain (bench.NMMDims(20), the Table 2 reference
//     point) compiled in a closed loop by one client. Why: saturation is
//     over 90% of each compile (match and apply about 35-40 ms each,
//     rebuild 4 ms of 85 ms) with about 800k allocations, and rule
//     loading under 1%, so a matcher, apply or rebuild change shows here
//     and the rule-template change must not. 80MM takes seconds to
//     minutes per compile, too long to repeat, and stays a benchtab
//     -table2 number.
//   - serve-mix: serve.New(Config{Workers: 2}) behind a loopback httptest
//     server, driven by an open loop at 100 requests/s at the reference
//     speed (calib.go) with a client transport capped at 2 connections;
//     each request is timed from when it was due. Even requests ask for
//     one of a warmed hot set of 32 modules (cache reads), odd ones for a
//     fresh module (misses, which write the cache). Modules are 4 genmod
//     functions of 30 ops, rotating through the imgconv, poly, matmul and
//     mixed difftest bundles, whose rules travel inline; all are generated
//     before timing. Why: the only workload that exercises
//     canonicalize+hash, the memo LRU, singleflight, the worker pool and
//     HTTP/JSON, and multi-function misses pay rule loading once per
//     function. Hits and misses share the parse and canonicalize path and
//     the one core, so a gain on one that costs the other shows. The cache
//     never evicts at this size (a few thousand entries, far below
//     64 MiB), so eviction is out of scope. The hot set is the same for
//     every seed; the seed draws the fresh modules, the checked sample,
//     and which hot module each hit asks for. The vecnorm bundle is left
//     out because difftest.Check rejects about one in ten of its 4×30-op
//     modules (15 of 150 at one seed), and every input must pass.
//
// In-process runs split their timed loop into chunks of about 100 ms:
// 75 ms of compiles (at least one), 15 ms of cached answers (canonicalize,
// memo.Key, memo.Cache lookup) of the same inputs, and at least 10 ms of
// the calibration kernel that scales both to the reference speed
// (calib.go). Each compile and each stretch of answers starts after a
// forced, untimed garbage collection, so where the collector's cycle
// stands does not depend on what ran before. serve-mix runs its open loop
// in stretches of 90 requests, each followed by 100 ms of the kernel,
// whose speed also sets the next stretch's wall-clock rate.
//
// # End-to-end metrics
//
// An op is one compile in paper5 and mm20 and one request in serve-mix.
// Every time, CPU time included, is at the reference speed (calib.go).
//
//   - setup_s: median of 9 set-ups in the run: the first compile of every
//     input and a cache filled with them (paper5, mm20); server start and
//     warming the hot set over HTTP (serve-mix).
//   - compile_ms_p50, compile_ms_p90: ops that run the optimizer: every
//     compile; serve-mix misses, from their due time.
//   - hit_ms_p50, hit_ms_p90: answering an input whose result is cached:
//     the in-process answers above; serve-mix hits over HTTP, from their
//     due time.
//   - cpu_ms_per_op, allocs_per_op, alloc_kb_per_op: process CPU time and
//     heap allocations over the timed compiles, the forced collections
//     between them included (paper5, mm20), or over the whole open loop,
//     client included (serve-mix), per op.
//   - peak_rss_mb: the process's peak resident set size, at the end of
//     set-up on paper5 and mm20 (after 9 compiles of every input), at the
//     end of the run on serve-mix, whose cache grows during the loop.
//   - cycles_speedup_geomean: the interpreter cycle model's speedup of the
//     optimized programs over the originals: bench.RunFig3's DialEgg
//     column (4.60 on paper5, 16.9 on mm20), and the hot set on serve-mix
//     (1.55).
//
// Failed or wrong ops and failed output checks are counted in "failed"
// against "attempted"; the error rate is not a metric because it is 0 on
// every accepted run. The highest rate meeting a latency limit is not a
// metric either: a rate near capacity turns the machine's speed drift
// (see Noise) into queueing, and serve-mix latencies at 200 requests/s
// spread by over 100% across runs where they spread by 10-20% at 100.
//
// # Output checks
//
// Run untimed before and after the timed phase, each counted as an op:
//
//   - A traced compile (below) prints byte-for-byte what the untraced
//     one does, on every distinct input, and its engine counters do not
//     change between the two checks.
//   - paper5 and mm20 keep bench.RunFig3's interpreter checksums within
//     each benchmark's tolerance of the unoptimized baseline.
//   - mm20's output does exactly the matrix-chain optimum of scalar
//     multiplications, computed here: 4,221,000 for NMMDims(20).
//   - serve-mix: the hot set and a seeded sample of 64 fresh modules pass
//     difftest.Check with their bundle's policy, and each equals the
//     in-process optimization of its canonical text. During the loop every
//     response must be 200 with the X-Egg-Cache the design implies; a hit
//     must repeat its warm-up response byte for byte, a miss must carry the
//     module's memo key and, for the sample, the in-process output. /statz
//     must count one run per miss, no queue-full rejections and no errors.
//
// # Per-layer metrics
//
// A traced run interleaves every untraced compile with a traced compile of
// the same input: the same parse, dialegg.OptimizeModule and print, with
// an obs.Recorder in Options.RunConfig.Recorder. The optimizer records its
// own phase spans there (load-rules, which includes dialegg.Prepare;
// mlir-to-egg; saturate; extract; egg-to-mlir) and the benchmark adds one
// span for the parse and one for the print. The layer spans are copied to
// the run's recorder under the names below, tagged with the op, under one
// root span per compile; the engine's own spans (iterations, match tasks)
// are left out. egglog.insert is the gap between the mlir-to-egg and
// saturate spans, where the optimizer runs Program.Execute on the
// translated function. A layer's self time is its span minus what its
// child spans cover; each <layer>.ms is the median over ops of its self
// time summed over the module's functions; per-layer times are as
// measured, not scaled. serve-mix traces its open loop
// for half the run and compiles the checked sample in process, traced,
// for the other half. Spans stay in memory; the trace must pass
// obs.ValidateTrace, and -trace-file writes it.
//
// Counts come from the traced compiles of the distinct inputs in the
// output checks, averaged per input, so they repeat exactly for a seed.
// Which end-to-end metric each should move, and where no change is
// predicted:
//
//   - egglog.load_rules.{ms,calls}: compile_ms_p50 on paper5 and
//     serve-mix; no change on mm20.
//   - egraph.saturate.{ms,match_ms,apply_ms,rebuild_ms,iterations,nodes,
//     rows_scanned,matches,useful_ratio}: compile_ms_p50 and cpu_ms_per_op
//     on mm20, compile_ms_p90 on paper5 (Poly is its tail); no change on
//     hits.
//   - egraph.extract.ms: compile_ms_p50 on paper5 and mm20; no change on
//     hits.
//   - dialegg.to_egg.{ms,opaque_ops}, egglog.insert.ms,
//     dialegg.from_egg.ms: compile_ms_p50 on paper5; no change on mm20.
//   - mlir.parse.ms, mlir.print.ms, memo.canon_hash.ms: hit_ms_p50 on
//     serve-mix and paper5; little change in mm20's compiles.
//   - go.gc.{cycles_per_op,pause_ms_per_op}: allocs_per_op and
//     compile_ms_p50 on mm20.
//   - trace.overhead_pct, trace.coverage: none; they check the trace.
//
// Counts and match_ms, apply_ms and rebuild_ms come from the
// dialegg.Report the optimizer returns (Run, NumOpaqueOps, SatMatch,
// SatApply, SatRebuild); nodes are summed over the saturate spans, one per
// function, since the report keeps only the last function's. useful_ratio
// is unions over matches; memo.canon_hash.ms is timed on every generated
// module (serve-mix) or every cached answer (paper5, mm20).
// go.gc.cycles_per_op counts the collections the runtime started itself,
// not the ones forced before each compile; go.gc.pause_ms_per_op includes
// the forced ones' pauses. On serve-mix both are per request of the
// traced open loop.
// trace.overhead_pct compares traced with untraced compile times, so it is
// the price of the recorder in the real pipeline; it was within noise of 0
// (-2.1% to +0.8%) on all three workloads. serve-mix also prints, outside the
// JSON line, the layers only it has: loadgen.late_ms_p99,
// http.conn_wait_ms_p50, serve.handler_ms_p50.{hit,miss} (a benchmark-side
// middleware around Server.Handler), and memo.cache.{hit_ratio,bytes,
// evictions}, serve.{runs,queue_full,errors} from /statz.
//
// # Noise
//
// On the shared virtual machine with 2 vCPUs the figures come from,
// allocation counts repeat to within 0.01% (paper5 13,024 and mm20
// 801,045 allocs per compile) and the speedups exactly. Times do not.
// Each vCPU flips, independently, between its normal speed and one 1.45
// to 1.75 times slower, in spells of 0.1 s to a few seconds: a kernel
// pinned to each vCPU in turn read 7.2 or 10.5 ms, and mm20's compiles
// took 88 or 155 ms. CPU steal stays near 0; a neighbour sharing the core
// is the likely cause. How much of a run falls in slow spells differs from
// run to run, so unscaled times spread by up to 40% (mm20's
// compile_ms_p90) over ten runs, and a first version of this benchmark,
// with GOMAXPROCS 2 in the timed phase and no scaling, by up to 38%.
//
// What steadies them: the timed phase runs with GOMAXPROCS 1 (serial, in
// result.go); every time is scaled by a calibration kernel timed next to
// it (calib.go); each compile starts after a forced collection; paper5
// draws a new order for each round (with one order per run, its
// compile_ms_p50 spread by 9% over ten 10-s runs, against 5%); peak RSS
// is read after set-up on paper5 and mm20. Over ten 30-s runs per
// workload with seeds 11-20, from a clean export of the repository, the
// interquartile spread over the median was then:
//
//	metric            paper5  mm20    serve-mix
//	compile_ms_p50    3.2%    10.1%   5.4%
//	compile_ms_p90    5.4%    6.6%    6.3%
//	hit_ms_p50        4.0%    7.7%    4.8%
//	hit_ms_p90        2.7%    6.1%    3.5%
//	cpu_ms_per_op     3.0%    6.3%    6.1%
//	peak_rss_mb       0.0%    2.5%    1.3%
//	setup_s           5.7%    7.8%    14.5%
//	allocs_per_op     0.0%    0.0%    1.2%
//
// The figures move with the hour. In two to three other sets per
// workload, taken with the same design, the worst were 10.7% for mm20's
// compile_ms_p90 and 14% for serve-mix's hit_ms_p90, in an hour when the
// kernel's own per-run median spread by 18%; in a quiet hour mm20's
// compile_ms_p50 spread by 1%. mm20 is the least steady: its compiles
// slow down more than the kernel in a slow spell (1.75 against 1.45
// times), and a spell can start or end inside an 85-ms compile, where no
// kernel run sees it. The bounds in BENCHMARK.json are 25% for times,
// set-up included (wider than the 10-15% first planned), 20% for peak
// RSS, 5% for allocations and 1% for the speedup; compare reports a
// metric whose own spread exceeds its bound as unresolved. Parent and
// change runs must alternate.
//
// # Baseline
//
// Per-layer medians (ms per op, as measured) of one traced 30-s run with
// seed 1 on the same machine, where the kernel's median was 8.1, 7.7 and
// 10.3 ms:
//
//	layer               paper5   mm20     serve-mix
//	mlir.parse          0.038    0.136    0.146
//	egglog.load_rules   0.234    0.225    0.753  (4 calls per module)
//	dialegg.to_egg      0.039    0.084    0.177
//	egglog.insert       0.041    0.091    0.179
//	egraph.saturate     0.173   79.3      0.370
//	  match/apply/rebuild 0.072/0.037/0.019  35.1/39.6/3.9  0.153/0.082/0.042
//	egraph.extract      0.258    4.43     0.626
//	dialegg.from_egg    0.075    0.763    0.243
//	mlir.print          0.030    0.149    0.118
//	trace.coverage      0.973    0.9996   0.989
//	trace.overhead_pct  -1.5     -2.1     +0.8
//
// egglog.load_rules includes dialegg.Prepare, about a third of it. About
// half of egraph.extract on paper5 and serve-mix is dialegg.TermDAGCost,
// which renders every subterm to a string to deduplicate it: in a paired
// measurement with GOMAXPROCS 2, an extract phase without it took 0.19
// instead of 0.35 ms on paper5 and 0.46 instead of 1.07 ms on serve-mix.
package main
