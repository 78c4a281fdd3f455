package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// Comparison verdicts.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "MISSING"
	verdictInfo       = "info" // per-layer metrics have no bound
)

// compareMain compares two result files written with -out, several runs
// per workload on each side. It exits 1 when the new side regressed.
// bench2 row files (BENCH_2/3/4.json) are compared with benchtab -compare.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-spec BENCHMARK.json] old.results.jsonl new.results.jsonl")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err == nil {
		var oldData, newData []byte
		if oldData, err = os.ReadFile(fs.Arg(0)); err == nil {
			if newData, err = os.ReadFile(fs.Arg(1)); err == nil {
				return compareResultFiles(sp, oldData, newData, stdout, stderr)
			}
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 2
}

func readRunRecords(data []byte) ([]runRecord, error) {
	var runs []runRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// compareRow is one metric × workload comparison.
type compareRow struct {
	workload, metric     string
	oldMed, newMed       float64
	oldSpread, newSpread float64
	change               float64 // (new-old)/old
	bound                float64
	verdict              string
}

// compareRuns compares each metric × workload of two sets of runs. A
// side's spread is its interquartile distance over its median. An
// end-to-end metric regressed when the new median is worse than the old
// by more than the metric's bound. When either side's spread exceeds the
// bound the comparison is unresolved, unless the median moved by more than
// the bound and the two sets do not overlap: every new run worse than
// every old run is a regression, every new run better is better.
func compareRuns(sp *spec, oldRuns, newRuns []runRecord) []compareRow {
	type key struct{ workload, metric string }
	values := func(runs []runRecord) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range runs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], v.Value)
			}
		}
		return out
	}
	oldVals, newVals := values(oldRuns), values(newRuns)
	e2e := make(map[string]specMetric)
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m
	}
	var keys []key
	for k := range oldVals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var rows []compareRow
	for _, k := range keys {
		o, n := oldVals[k], newVals[k]
		sm, isE2E := e2e[k.metric]
		row := compareRow{workload: k.workload, metric: k.metric, bound: sm.Bound,
			oldMed: median(o), oldSpread: spread(o)}
		if len(n) == 0 {
			row.verdict = verdictMissing
			rows = append(rows, row)
			continue
		}
		row.newMed, row.newSpread = median(n), spread(n)
		if row.oldMed != 0 {
			row.change = (row.newMed - row.oldMed) / row.oldMed
		}
		higher := sm.Better == "higher"
		worse := row.change
		if higher {
			worse = -worse
		}
		switch {
		case !isE2E:
			row.verdict = verdictInfo
		case row.oldSpread > sm.Bound || row.newSpread > sm.Bound:
			switch {
			case worse > sm.Bound && allBeat(n, o, higher):
				row.verdict = verdictRegression
			case -worse > sm.Bound && allBeat(o, n, higher):
				row.verdict = verdictBetter
			default:
				row.verdict = verdictUnresolved
			}
		case worse > sm.Bound:
			row.verdict = verdictRegression
		case -worse > sm.Bound:
			row.verdict = verdictBetter
		default:
			row.verdict = verdictOK
		}
		rows = append(rows, row)
	}
	return rows
}

// allBeat reports whether every value of b beats every value of a.
func allBeat(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				return false
			}
		}
	}
	return true
}

func compareResultFiles(sp *spec, oldData, newData []byte, stdout, stderr io.Writer) int {
	oldRuns, err := readRunRecords(oldData)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare: old:", err)
		return 2
	}
	newRuns, err := readRunRecords(newData)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare: new:", err)
		return 2
	}
	rows := compareRuns(sp, oldRuns, newRuns)
	fmt.Fprintf(stdout, "%-9s %-30s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "old p50", "new p50", "change", "old IQR", "new IQR", "bound", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-9s %-30s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.oldMed, r.newMed, 100*r.change, 100*r.oldSpread, 100*r.newSpread, 100*r.bound, r.verdict)
		if r.verdict == verdictRegression || r.verdict == verdictMissing {
			code = 1
		}
	}
	for _, r := range newRuns {
		if !r.Correct {
			fmt.Fprintf(stderr, "perfbench compare: new %s run (seed %d) failed %d of %d operations\n",
				r.Workload, r.Seed, r.Failed, r.Attempted)
			code = 1
		}
	}
	return code
}
