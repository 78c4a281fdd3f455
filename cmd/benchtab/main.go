// Command benchtab regenerates the paper's evaluation artifacts: Figure 3
// (speedups of DialEgg vs canonicalization vs the hand-written pass),
// Table 1 (per-dialect op counts), and Table 2 (compile-time breakdown
// including the NMM scalability study).
//
// Usage:
//
//	benchtab             # everything at CI scale
//	benchtab -full       # the paper's workload sizes (minutes)
//	benchtab -fig3       # only Figure 3
//	benchtab -table2 -chains 10,20,40,80
//	benchtab -bench2     # naive vs semi-naive matching row visits
//
// The -bench2 table holds only deterministic counters; at CI scale it is
// pinned by internal/bench/testdata/bench2.golden (TestBench2Golden).
//
// Observability: --stats prints each benchmark's saturation and per-rule
// metrics to stderr (tables stay on stdout); --stats-json writes every
// section's rows, including the DialEgg optimization reports, as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dialegg/internal/bench"
	"dialegg/internal/egraph"
	"dialegg/internal/obs"
)

func main() {
	fig3 := flag.Bool("fig3", false, "regenerate Figure 3")
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	table2 := flag.Bool("table2", false, "regenerate Table 2")
	bench2 := flag.Bool("bench2", false, "compare naive vs semi-naive (and reference-scheduled) matching row visits")
	full := flag.Bool("full", false, "use the paper's full workload sizes")
	chains := flag.String("chains", "10,20,40,80", "NMM scalability chain lengths for Table 2")
	stats := flag.Bool("stats", false, "print per-benchmark saturation and per-rule metrics to stderr")
	statsJSON := flag.String("stats-json", "", "write all section results (with optimization reports) as JSON to this file")
	flag.Parse()

	if !*fig3 && !*table1 && !*table2 && !*bench2 {
		*fig3, *table1, *table2 = true, true, true
	}
	scale := bench.ScaleCI
	if *full {
		scale = bench.ScaleFull
	}
	benchs := bench.DefaultBenchmarks(scale)

	// out aggregates every section's rows for --stats-json.
	var out struct {
		Table1 []bench.Table1Row `json:"table1,omitempty"`
		Fig3   []bench.Fig3Row   `json:"fig3,omitempty"`
		Bench2 []bench.Bench2Row `json:"bench2,omitempty"`
		Table2 []bench.Table2Row `json:"table2,omitempty"`
	}

	if *table1 {
		rows, err := bench.RunTable1(benchs)
		fatalIf(err)
		fmt.Println(bench.FormatTable1(rows))
		out.Table1 = rows
	}
	if *fig3 {
		fmt.Println("running Figure 3 benchmarks (baseline, canonicalization, DialEgg, DialEgg+canon, greedy pass)...")
		rows, err := bench.RunFig3(benchs)
		fatalIf(err)
		fmt.Println(bench.FormatFig3(rows))
		out.Fig3 = rows
		if *stats {
			printFig3Stats(rows)
		}
	}
	if *bench2 {
		fmt.Println("comparing naive vs semi-naive matching over the benchmark workloads...")
		rows, err := bench.RunBench2(bench.Bench2Benchmarks(scale))
		fatalIf(err)
		fmt.Println(bench.FormatBench2(rows))
		out.Bench2 = rows
	}
	if *table2 {
		var sizes []int
		for _, s := range strings.Split(*chains, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			n, err := strconv.Atoi(s)
			fatalIf(err)
			sizes = append(sizes, n)
		}
		fmt.Println("running Table 2 compile-time breakdown (this saturates the NMM chains; long chains take a while)...")
		rows, err := bench.RunTable2(benchs, sizes)
		fatalIf(err)
		fmt.Println(bench.FormatTable2(rows))
		out.Table2 = rows
	}

	if *statsJSON != "" {
		fatalIf(obs.WriteJSONFile(*statsJSON, out))
		fmt.Println("wrote", *statsJSON)
	}
}

// printFig3Stats prints each benchmark's DialEgg saturation summary and
// per-rule metrics table to stderr.
func printFig3Stats(rows []bench.Fig3Row) {
	for _, row := range rows {
		for _, r := range row.Results {
			if r.Report == nil {
				continue
			}
			rep := r.Report
			fmt.Fprintf(os.Stderr, "%s: %d iterations, %d nodes, stop: %s, rows scanned: %d, saturation %v\n",
				row.Benchmark, rep.Run.Iterations, rep.Run.Nodes, rep.Run.Stop, rep.Run.RowsScanned, rep.Saturation)
			if len(rep.Run.Rules) > 0 {
				fmt.Fprint(os.Stderr, egraph.FormatRuleStats(rep.Run.Rules))
			}
		}
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
