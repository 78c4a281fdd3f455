package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metric is one measured value. n is the sample count it summarizes (1
// for a single measurement).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// result is what one workload run produces: operation counts, failed
// checks, and metrics.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   []metric
}

func (r *result) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

// check counts one attempted operation: a timed op or an untimed output
// check. A wrong or failed one also counts as failed, with its reason
// kept (the first few) for the report.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// spec is the part of BENCHMARK.json the benchmark reads: the declared
// workloads and metrics (with bounds, which compare uses).
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// usage is a snapshot of the process counters the per-op metrics are
// deltas of.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint64
	pause   time.Duration
}

// readUsage counts only the collections the runtime started itself, not
// the ones the benchmark forces before each compile; their pauses are in
// pause.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	auto := []metrics.Sample{{Name: "/gc/cycles/automatic:gc-cycles"}}
	metrics.Read(auto)
	return usage{cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: auto[0].Value.Uint64(),
		pause: time.Duration(ms.PauseTotalNs)}
}

func (u usage) minus(o usage) usage {
	return usage{cpu: u.cpu - o.cpu, mallocs: u.mallocs - o.mallocs, bytes: u.bytes - o.bytes,
		gcs: u.gcs - o.gcs, pause: u.pause - o.pause}
}

func (u usage) plus(o usage) usage {
	return usage{cpu: u.cpu + o.cpu, mallocs: u.mallocs + o.mallocs, bytes: u.bytes + o.bytes,
		gcs: u.gcs + o.gcs, pause: u.pause + o.pause}
}

// addPerOp records the cost metrics of ops operations that used u, whose
// CPU time is at the reference speed.
func (r *result) addPerOp(u usage, ops int) {
	n := float64(ops)
	r.add("cpu_ms_per_op", "ms", ms(u.cpu)/n, ops)
	r.add("allocs_per_op", "count", float64(u.mallocs)/n, ops)
	r.add("alloc_kb_per_op", "KiB", float64(u.bytes)/1024/n, ops)
}

// addGC records the garbage collector's share of ops operations that
// used u.
func (r *result) addGC(u usage, ops int) {
	n := float64(ops)
	r.add("go.gc.cycles_per_op", "count", float64(u.gcs)/n, ops)
	r.add("go.gc.pause_ms_per_op", "ms", ms(u.pause)/n, ops)
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// serial runs f, a workload's timed phase, with GOMAXPROCS 1: one client
// process on one core. On the 2-vCPU machine the benchmark was built on,
// each vCPU flips, independently and every 0.1 to a few seconds, between
// its normal speed and one about 1.45 times slower. With GOMAXPROCS 2 the
// match phase hands work to the other vCPU every iteration and a
// request's goroutines spread over both, so a time depends on both
// states: paper5's compiles took 0.95 ms instead of 0.70 and varied twice
// as much, and serve-mix's compile_ms_p50 spread by 11% over ten runs
// instead of 7%. Set-up and the output checks run with GOMAXPROCS = nproc.
func serial(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// timedSetup runs setup n times and returns the last instance, after
// closing the earlier ones, and the median set-up time in seconds at the
// reference speed, each set-up scaled by two kernel runs just before it.
// The first set-up in a process pays one-time costs (page faults, lazy
// runtime init); the median is what a warm repeat costs.
func timedSetup[T any](n int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
		}
		f := calibrate(time.Now())
		start := time.Now()
		v, err := setup()
		secs = append(secs, time.Since(start).Seconds()*f)
		if err != nil {
			var zero T
			return zero, 0, err
		}
		last = v
	}
	return last, median(secs), nil
}
