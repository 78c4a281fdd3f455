package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"dialegg/internal/obs"
)

// runConfig sizes one workload run. The defaults are the benchmark's;
// tests shrink them.
type runConfig struct {
	seed    int64
	seconds float64
	// setups is how many times the set-up runs; setup_s is the median.
	setups int
	// rec, when set, makes this a traced run reporting per-layer metrics.
	rec *obs.Recorder
	// chunk is the period at which in-process runs alternate compiles,
	// cached answers and the calibration kernel.
	chunk time.Duration
	// chain is the matmul count of mm20's chain.
	chain int
	// rate is serve-mix's offered load in requests per second; hot is its
	// hot-set size, sample how many fresh modules are checked in full, and
	// funcs and ops the shape of every generated module.
	rate        float64
	hot, sample int
	funcs, ops  int
}

func defaultConfig() runConfig {
	return runConfig{seed: 1, seconds: 10, setups: 9, chunk: 100 * time.Millisecond, chain: 20,
		rate: 100, hot: 32, sample: 64, funcs: 4, ops: 30}
}

var workloads = map[string]func(runConfig) (*result, error){
	"paper5":    runPaper5,
	"mm20":      runMM,
	"serve-mix": runServeMix,
}

var workloadOrder = []string{"paper5", "mm20", "serve-mix"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper5, mm20 or serve-mix; empty runs each, untraced and then traced, in a process of its own")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "measured time of one run")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
	traceFile := fs.String("trace-file", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	out := fs.String("out", "", "append the run's result as a JSON line to this file, the input of 'perfbench compare'")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *workload == "" {
		return runAll(fs, stdout, stderr)
	}
	run, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %s, -trace 0 or 1, -seconds > 0\n", strings.Join(workloadOrder, ", "))
		return 2
	}
	cfg := defaultConfig()
	cfg.seed, cfg.seconds = *seed, *seconds
	declared := sp.EndToEnd
	if *trace == 1 {
		cfg.rec = obs.NewRecorder()
		declared = sp.PerLayer
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if cfg.rec != nil && *traceFile != "" {
		if err := cfg.rec.WriteTraceFile(*traceFile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	rec, err := report(stdout, stderr, *workload, res, declared)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if *out != "" {
		rec.Workload, rec.Seed, rec.Trace = *workload, *seed, *trace
		if err := appendJSONLine(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runRecord is the result line: the last line of a run's standard output
// and one line of an -out file.
type runRecord struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one "workload metric value unit n=samples" line per
// measured metric, then the result line holding exactly the declared
// metrics. A declared metric that was not measured, has another unit, or
// is not a number is an error and no result line is printed.
func report(stdout, stderr io.Writer, workload string, res *result, declared []specMetric) (*runRecord, error) {
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-9s %-30s %14.6g %-5s n=%d\n", workload, m.name, m.value, m.unit, m.n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %s\n", workload, p)
	}
	rec := &runRecord{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range declared {
		m, ok := res.lookup(d.Name)
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		case m.unit != d.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.unit, d.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			return nil, fmt.Errorf("metric %s is %v", d.Name, m.value)
		}
		rec.Metrics[d.Name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec, nil
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload untraced and then traced, each run in a
// fresh process of its own (this binary, re-executed), so peak RSS and
// garbage-collector state do not carry over between workloads.
func runAll(fs *flag.FlagSet, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadOrder {
		for _, trace := range []int{0, 1} {
			args := []string{"-workload", w, "-trace", strconv.Itoa(trace)}
			fs.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "workload", "trace":
				case "trace-file":
					if trace == 1 {
						args = append(args, "-trace-file", strings.TrimSuffix(f.Value.String(), ".json")+"."+w+".json")
					}
				default:
					args = append(args, "-"+f.Name, f.Value.String())
				}
			})
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s (trace %d): %v\n", w, trace, err)
				code = 1
			}
		}
	}
	return code
}
