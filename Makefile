# DialEgg-in-Go build targets. Everything is stdlib-only Go; the Makefile
# only bundles the common invocations.

GO ?= go

.PHONY: all build test test-race vet fmt perfbench-test bench bench-smoke trace-smoke debug-smoke serve-smoke metrics-smoke prof-smoke tune-smoke fuzz-smoke fuzz-nightly examples fig3 tables full clean

all: build vet test test-race perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (same gate CI runs).
fmt:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector run: the saturation match phase is concurrent, so the
# tier-1 flow includes it (the parallel differential and fuzz tests only
# prove determinism when they also run race-clean).
test-race:
	$(GO) test -race ./...

# The repository benchmark (perfbench/) is a Go module of its own, so the
# ./... targets above never build it; vet it and run its short tests so an
# internal API change that breaks the benchmark fails here.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test -short .

# Long-form test run with saved output, per the reproduction protocol.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# One-shot pass over the saturation benchmarks, every mode of the
# observability, profiler and journal overhead benchmarks, and the cache
# hit path (in process and through egg-serve's HTTP handler, hit and
# miss): a cheap smoke signal that the hot paths still run. Then the
# perf-regression gate:
# remeasure the naive-vs-semi-naive row visits into a scratch artifact
# and compare it against the committed BENCH_4.json baseline.
# Deterministic counters (rows scanned, iterations, scheduler
# throttle/cap counts) must not grow beyond tolerance.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Saturate|EMatch|Rebuild|Extract|ObservabilityOverhead|ProfileOverhead|JournalOverhead|CacheHit|ServeCache' -benchtime=1x -benchmem ./internal/egraph/ ./internal/bench/ ./internal/serve/
	$(GO) run ./cmd/benchtab -bench2 -bench2-out bench2_fresh.json
	$(GO) run ./cmd/benchtab -compare BENCH_4.json bench2_fresh.json

# Observability smoke: run egg-opt with tracing, metrics, and profiling
# enabled on a real example, then lint the artifacts (Chrome-trace shape,
# ts monotonicity, and the cross-field metric invariants).
trace-smoke:
	$(GO) run ./cmd/egg-opt -rules imgconv -workers 2 -stats \
		-stats-json stats.json -trace trace.json \
		-cpuprofile cpu.pprof -memprofile mem.pprof \
		examples/div_pow2.mlir > /dev/null
	$(GO) run ./cmd/egg-lint trace.json stats.json
	@echo "trace-smoke: OK (trace.json, stats.json, cpu.pprof, mem.pprof)"

# Time-travel smoke: journal a real run with embedded snapshots while
# every consumer of the function's one extractor is on (extraction, blame
# for the profile, rewrite proofs, extraction reports), lint the journal's
# event-stream invariants and the profile, then replay the journal with
# bit-identity verification and exercise diff/why.
debug-smoke:
	$(GO) run ./cmd/egg-opt -rules imgconv -workers 2 \
		-journal journal.jsonl -snapshot-every 1 -explain -explain-extraction \
		-profile profile.json examples/div_pow2.mlir > /dev/null 2> extraction.txt
	$(GO) run ./cmd/egg-lint journal.jsonl profile.json
	$(GO) run ./cmd/egg-debug replay -journal journal.jsonl -verify \
		-snapshot snapshot.json -dot egraph.dot
	$(GO) run ./cmd/egg-debug diff -journal journal.jsonl -from 1 -to -1
	@echo "debug-smoke: OK (journal.jsonl, profile.json, snapshot.json, egraph.dot, extraction.txt)"

# Serving smoke: egg-serve's self-contained exercise — start on an
# ephemeral port, optimize (cache miss), optimize again (cache hit),
# verify one saturation run, drain gracefully.
serve-smoke:
	$(GO) run ./cmd/egg-serve -smoke

# Telemetry-plane smoke: egg-serve's self-contained metrics exercise —
# normal traffic plus a watchdog-tripping saturation explosion, then
# /metrics, /buildz, and /debugz/flightz checks — followed by the
# linter over the written artifacts (Prometheus exposition invariants;
# Chrome-trace shape of the tripped request's flight record).
metrics-smoke:
	$(GO) run ./cmd/egg-serve -metrics-smoke -log off
	$(GO) run ./cmd/egg-lint \
		-require egg_requests_total,egg_request_duration_seconds,egg_watchdog_trips_total,egg_build_info,egg_rule_matched_total,egg_engine_nodes,egg_queue_age_seconds,egg_uptime_seconds \
		metrics.txt flight.trace.json
	@echo "metrics-smoke: OK (metrics.txt, flight.trace.json)"

# Profiler smoke: run the paper benchmark with a saturation profile, lint
# the artifact, render the blame, selectivity, and top reports, then merge
# the artifact with itself and lint the merged one too.
prof-smoke:
	$(GO) run ./cmd/egg-opt -rules imgconv -workers 2 \
		-profile profile.json -profile-sample 2 \
		examples/div_pow2.mlir > /dev/null
	$(GO) run ./cmd/egg-lint profile.json
	$(GO) run ./cmd/egg-prof blame profile.json
	$(GO) run ./cmd/egg-prof selectivity profile.json
	$(GO) run ./cmd/egg-prof top -n 5 profile.json
	$(GO) run ./cmd/egg-prof merge -o profile.merged.json profile.json profile.json
	$(GO) run ./cmd/egg-lint profile.merged.json
	@echo "prof-smoke: OK (profile.json, profile.merged.json)"

# Scheduling autotuner smoke: a tiny-budget tune over two workloads must
# emit a lintable dialegg-schedule/v2 artifact (commassoc's default entry
# is a backoff spec with parameters) that egg-opt and egglog then load and
# run under (the whole artifact lifecycle: search -> lint -> load).
tune-smoke:
	$(GO) run ./cmd/egg-tune -workloads chain16,commassoc -budget 4 -o schedule.json
	$(GO) run ./cmd/egg-lint schedule.json
	$(GO) run ./cmd/egg-opt -rules imgconv -schedule schedule.json \
		examples/div_pow2.mlir > /dev/null
	echo '(datatype E (Num i64) (Add E E)) (rewrite (Add ?a ?b) (Add ?b ?a)) (let x (Add (Add (Num 1) (Num 2)) (Num 3))) (run 8) (extract x)' \
		| $(GO) run ./cmd/egglog -schedule schedule.json > /dev/null
	@echo "tune-smoke: OK (schedule.json)"

# Differential fuzzing smoke: replay the checked-in repro corpus (fixed
# regressions must stay fixed, expect-fail entries must stay caught —
# they pin the oracle's detection power), then a short fresh fuzz over
# every rule bundle. Deterministic in the seed, so CI failures are
# locally reproducible verbatim. Last, 10-s native fuzz runs of the
# matcher's two engine harnesses (semi-naive against naive, sharded
# against serial matching) and of the MLIR parser (round trip, and
# structural type equality against printed text); these are not seeded,
# and a failing input is written under the package's testdata/fuzz/,
# where `go test` replays it.
fuzz-smoke:
	$(GO) run ./cmd/egg-fuzz -replay internal/difftest/testdata/corpus
	$(GO) run ./cmd/egg-fuzz -rules all -n 10 -seed 1
	$(GO) test -run '^$$' -fuzz '^FuzzSemiNaive$$' -fuzztime 10s ./internal/egraph/
	$(GO) test -run '^$$' -fuzz '^FuzzParallelMatch$$' -fuzztime 10s ./internal/egraph/
	$(GO) test -run '^$$' -fuzz '^FuzzParseModule$$' -fuzztime 10s ./internal/mlir/

# Long-budget campaign for the nightly job: many seeds per bundle,
# minimized repros written to fuzz-repros/ for artifact upload. Known
# open bugs make this red until fixed — that is its job.
fuzz-nightly:
	$(GO) run ./cmd/egg-fuzz -rules all -n 500 -seed $$(date +%j) \
		-minimize -corpus fuzz-repros -max-failures 10

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/horner
	$(GO) run ./examples/fastinvsqrt
	$(GO) run ./examples/matmulchain
	$(GO) run ./examples/customdialect
	$(GO) run ./examples/imagegray

# Regenerate the paper's evaluation artifacts (CI scale).
fig3:
	$(GO) run ./cmd/benchtab -fig3

tables:
	$(GO) run ./cmd/benchtab -table1 -table2

# Paper-sized workloads (slow).
full:
	$(GO) run ./cmd/benchtab -full

clean:
	rm -f test_output.txt bench_output.txt trace.json stats.json cpu.pprof mem.pprof \
		journal.jsonl snapshot.json egraph.dot extraction.txt \
		metrics.txt flight.trace.json \
		profile.json profile.merged.json bench2_fresh.json schedule.json
	rm -rf fuzz-repros
