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
//	benchtab -bench2     # naive vs semi-naive matching -> bench2_fresh.json
//	benchtab -compare BENCH_4.json bench2_fresh.json   # perf-regression gate
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
	bench2 := flag.Bool("bench2", false, "compare naive vs semi-naive matching and write the -bench2-out artifact")
	bench2Out := flag.String("bench2-out", "bench2_fresh.json", "output path for -bench2")
	compare := flag.Bool("compare", false, "compare two bench2 artifacts: benchtab -compare old.json new.json (nonzero exit on regressions)")
	compareTol := flag.Float64("compare-tol", 0.05, "fractional growth in deterministic row counts tolerated by -compare before failing")
	full := flag.Bool("full", false, "use the paper's full workload sizes")
	chains := flag.String("chains", "10,20,40,80", "NMM scalability chain lengths for Table 2")
	stats := flag.Bool("stats", false, "print per-benchmark saturation and per-rule metrics to stderr")
	statsJSON := flag.String("stats-json", "", "write all section results (with optimization reports) as JSON to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalIf(fmt.Errorf("-compare needs exactly two artifacts: benchtab -compare old.json new.json"))
		}
		oldRows, err := bench.ReadBench2JSON(flag.Arg(0))
		fatalIf(err)
		newRows, err := bench.ReadBench2JSON(flag.Arg(1))
		fatalIf(err)
		rows, regressions := bench.CompareBench2(oldRows, newRows, *compareTol)
		fmt.Print(bench.FormatCompare(rows))
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "benchtab: REGRESSION:", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions (tolerance %.1f%%)\n", 100**compareTol)
		return
	}

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
		fatalIf(bench.WriteBench2JSON(*bench2Out, rows))
		fmt.Println("wrote", *bench2Out)
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
