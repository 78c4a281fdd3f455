// Command egglog is a standalone interpreter for the egglog dialect this
// repository implements: it executes a program of declarations, facts,
// rules, runs, checks, and extractions, printing each command's result.
//
// Usage:
//
//	egglog program.egg
//	echo '(sort E) ...' | egglog
//	egglog -dot graph.dot program.egg   # dump the final e-graph
//
// The interpreter supports the subset used by the DialEgg paper plus
// rulesets and run-schedule; see internal/egglog.
//
// Observability: --stats prints run statistics (with a per-rule table) to
// stderr so stdout stays pipeable results; --stats-json writes the last
// run's report as JSON; --trace writes a Chrome trace-event file
// (Perfetto-loadable); -cpuprofile/-memprofile write pprof profiles;
// -profile writes a saturation-profile artifact aggregating every (run)
// with blame analysis over every (extract) root, readable by egg-prof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dialegg/internal/egglog"
	"dialegg/internal/egraph"
	"dialegg/internal/obs"
	"dialegg/internal/obs/journal"
	"dialegg/internal/obs/profile"
	"dialegg/internal/sched"
	"dialegg/internal/sexp"
)

// options collects the CLI flags run() consumes.
type options struct {
	dotPath   string
	stats     bool
	statsJSON string
	traceFile string
	proofs    bool
	workers   int
	naive     bool

	journalFile   string
	snapshotEvery int
	explainExtr   bool

	profileFile   string
	profileSample int

	scheduler    string
	scheduleFile string
	scheduleSet  string
}

func main() {
	var opts options
	flag.StringVar(&opts.dotPath, "dot", "", "write the final e-graph as Graphviz DOT to this file")
	flag.BoolVar(&opts.stats, "stats", false, "print e-graph and saturation statistics (with a per-rule table) to stderr")
	flag.StringVar(&opts.statsJSON, "stats-json", "", "write the last run's report as JSON to this file")
	flag.StringVar(&opts.traceFile, "trace", "", "write a Chrome trace-event file (Perfetto-loadable) to this file")
	flag.BoolVar(&opts.proofs, "proofs", false, "record union provenance so (explain a b) works")
	flag.IntVar(&opts.workers, "workers", 0, "match-phase worker pool size for (run ...) (0 = GOMAXPROCS, 1 = serial)")
	flag.BoolVar(&opts.naive, "naive", false, "disable semi-naive (delta-frontier) matching for (run ...)")
	flag.StringVar(&opts.journalFile, "journal", "", "write an e-graph event journal (JSONL, replayable with egg-debug) to this file")
	flag.IntVar(&opts.snapshotEvery, "snapshot-every", 0, "embed an e-graph snapshot in the journal every N saturation iterations (0 = none)")
	flag.BoolVar(&opts.explainExtr, "explain-extraction", false, "print an extraction-decision report for every (extract ...) to stderr")
	flag.StringVar(&opts.profileFile, "profile", "", "write a saturation-profile artifact (per-rule cost/benefit + extraction blame; egg-prof readable) to this file")
	flag.IntVar(&opts.profileSample, "profile-sample", 0, "sample every Nth match root for premise-selectivity statistics in the profile (0 = off)")
	flag.StringVar(&opts.scheduler, "scheduler", "", "rule scheduling strategy for (run ...): simple, backoff[:threshold=N,factor=N,ban=N], or matchlimit[:N]")
	flag.StringVar(&opts.scheduleFile, "schedule", "", "load a tuned dialegg-schedule/v2 artifact (egg-tune output); -scheduler overrides")
	flag.StringVar(&opts.scheduleSet, "schedule-ruleset", "", "ruleset name to resolve in the -schedule artifact (default: the artifact's default entry)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	var stopCPU func() error
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egglog:", err)
			os.Exit(1)
		}
		stopCPU = stop
	}
	runErr := run(opts)
	if stopCPU != nil {
		if err := stopCPU(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "egglog:", runErr)
		os.Exit(1)
	}
}

func run(opts options) (err error) {
	var src []byte
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(flag.Arg(0))
	default:
		return fmt.Errorf("expected at most one program file")
	}
	if err != nil {
		return err
	}

	nodes, err := sexp.Parse(string(src))
	if err != nil {
		return err
	}
	p := egglog.NewProgram()
	if opts.proofs {
		p.Graph().EnableExplanations()
	}
	if opts.journalFile != "" {
		jw, jerr := journal.Create(opts.journalFile)
		if jerr != nil {
			return fmt.Errorf("opening journal: %w", jerr)
		}
		jw.SnapshotEvery = opts.snapshotEvery
		defer func() {
			if cerr := jw.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing journal: %w", cerr)
			}
		}()
		name := "stdin"
		if flag.NArg() == 1 {
			name = flag.Arg(0)
		}
		p.SetJournal(jw, name)
	}
	p.RunDefaults.Workers = opts.workers
	p.RunDefaults.Naive = opts.naive
	p.RunDefaults.ProfileSample = opts.profileSample
	if p.RunDefaults.Scheduler, err = sched.Load(opts.scheduleFile, opts.scheduleSet, opts.scheduler); err != nil {
		return err
	}
	if opts.traceFile != "" {
		p.RunDefaults.Recorder = obs.NewRecorder()
	}
	// Aggregate every (run ...) report and remember every (extract ...)
	// root so -profile can fold the whole program into one artifact and
	// join blame analysis against the extraction decisions.
	var profRuns egraph.RunReport
	var extractRoots []*sexp.Node
	// Execute command by command so results interleave with their
	// commands, like the reference egglog REPL.
	for _, n := range nodes {
		results, err := p.Execute([]*sexp.Node{n})
		if err != nil {
			return err
		}
		for _, r := range results {
			switch r.Command {
			case "run", "run-schedule":
				fmt.Printf("ran %d iterations; stop: %s; %d e-nodes, %d e-classes\n",
					r.Report.Iterations, r.Report.Stop, r.Report.Nodes, r.Report.Classes)
				if opts.profileFile != "" {
					profRuns.Merge(r.Report)
				}
			case "extract":
				if opts.profileFile != "" && len(n.Args()) > 0 {
					extractRoots = append(extractRoots, n.Args()[0])
				}
				if opts.explainExtr && len(n.Args()) > 0 {
					v, err := p.EvalExpr(n.Args()[0])
					var rep *egraph.ExtractionReport
					if err == nil {
						rep, err = p.Extractor().Report(v, 3)
					}
					if err != nil {
						fmt.Fprintf(os.Stderr, "(no extraction report: %v)\n", err)
					} else {
						fmt.Fprint(os.Stderr, rep.Format())
					}
				}
				if len(r.Variants) > 1 {
					for _, v := range r.Variants {
						fmt.Printf("%s ; cost %d\n", v.Term, v.Cost)
					}
					break
				}
				fmt.Printf("%s ; cost %d\n", r.Term, r.Cost)
			case "check":
				fmt.Println("check passed")
			case "query":
				fmt.Printf("query: %t\n", r.Holds)
			case "explain":
				fmt.Print(r.Explanation)
			case "print-function":
				for _, row := range r.Rows {
					fmt.Println(row)
				}
			}
		}
	}

	if opts.stats {
		g := p.Graph()
		fmt.Fprintf(os.Stderr, "e-graph: %d nodes, %d classes, %d rules\n",
			g.NumNodes(), g.NumClasses(), p.NumRules())
		if last := p.LastRun; last.Iterations > 0 {
			fmt.Fprintf(os.Stderr, "last run: %d iterations, workers %d, rows scanned %d, match %v, apply %v, rebuild %v\n",
				last.Iterations, last.Workers, last.RowsScanned, last.MatchTime, last.ApplyTime, last.RebuildTime)
			fmt.Fprint(os.Stderr, egraph.FormatIterStats(last.PerIter))
			if len(last.Rules) > 0 {
				fmt.Fprint(os.Stderr, egraph.FormatRuleStats(last.Rules))
			}
		}
	}
	if opts.statsJSON != "" {
		if err := obs.WriteJSONFile(opts.statsJSON, p.LastRun); err != nil {
			return fmt.Errorf("writing stats JSON: %w", err)
		}
	}
	if opts.profileFile != "" {
		var blame []egraph.BlameRow
		if len(extractRoots) > 0 {
			roots := make([]egraph.Value, len(extractRoots))
			for i, e := range extractRoots {
				if roots[i], err = p.EvalExpr(e); err != nil {
					return fmt.Errorf("blame analysis: %w", err)
				}
			}
			if blame, err = p.Extractor().Blame(roots); err != nil {
				return fmt.Errorf("blame analysis: %w", err)
			}
		}
		if err := profile.FromRunReport(profRuns, blame).Write(opts.profileFile); err != nil {
			return fmt.Errorf("writing profile: %w", err)
		}
	}
	if rec := p.RunDefaults.Recorder; rec.Enabled() {
		if err := rec.WriteTraceFile(opts.traceFile); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if opts.dotPath != "" {
		f, err := os.Create(opts.dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		p.Graph().Rebuild()
		if err := p.Graph().WriteDot(f); err != nil {
			return err
		}
	}
	return nil
}
