// Command egg-opt is the artifact's optimizer driver (§A.7): an mlir-opt
// style tool that reads an MLIR file, applies equality-saturation
// optimization with the rewrite rules from one or more .egg files, and
// prints the optimized MLIR.
//
// Usage:
//
//	egg-opt [flags] input.mlir
//	egg-opt -egg rules/div_pow2.egg -egg rules/arith_core.egg prog.mlir
//
// With no input path the module is read from stdin. The bundled rule sets
// can be selected by name with -rules (imgconv, vecnorm, poly, matmul).
//
// Observability: --stats prints run statistics (including a per-rule
// metrics table) to stderr, keeping stdout pipeable MLIR; --stats-json
// writes the same data as machine-readable JSON; --trace writes a Chrome
// trace-event file loadable in Perfetto or chrome://tracing with pipeline,
// engine, and match-worker lanes; -cpuprofile/-memprofile write pprof
// profiles; -profile writes a saturation-profile artifact (per-rule
// cost/benefit counters joined with extraction blame, plus sampled
// premise selectivity with -profile-sample N) readable by egg-prof.
//
// Time travel: -journal records every e-graph mutation as a JSONL event
// log replayable with cmd/egg-debug, -snapshot-every N embeds a
// process-independent e-graph snapshot every N iterations, and
// -explain-extraction prints a per-class extraction-decision report
// (chosen node, cost breakdown, rejected alternatives, creating rule) for
// each rewritten operation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/obs"
	"dialegg/internal/obs/journal"
	"dialegg/internal/obs/profile"
	"dialegg/internal/passes"
	"dialegg/internal/rules"
	"dialegg/internal/sched"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// options collects the CLI flags run() consumes.
type options struct {
	eggFiles  []string
	ruleSet   string
	emitEgg   bool
	canon     bool
	greedy    bool
	noDialEgg bool
	iterLimit int
	nodeLimit int
	workers   int
	timeLimit time.Duration
	naive     bool
	stats     bool
	statsJSON string
	traceFile string
	explain   bool

	journalFile   string
	snapshotEvery int
	explainExtr   bool

	profileFile   string
	profileSample int

	scheduler    string
	scheduleFile string
}

func main() {
	var opts options
	var eggFiles stringList
	flag.Var(&eggFiles, "egg", "egglog rule file (repeatable)")
	flag.StringVar(&opts.ruleSet, "rules", "", "bundled rule set: imgconv, vecnorm, poly, or matmul")
	flag.BoolVar(&opts.emitEgg, "emit-egg", false, "print the generated egglog program instead of MLIR")
	flag.BoolVar(&opts.canon, "canonicalize", false, "run canonicalization after DialEgg")
	flag.BoolVar(&opts.greedy, "greedy-matmul", false, "run the hand-written greedy matmul pass instead of DialEgg")
	flag.BoolVar(&opts.noDialEgg, "no-dialegg", false, "skip equality saturation (useful with -canonicalize)")
	flag.IntVar(&opts.iterLimit, "iter-limit", 0, "saturation iteration limit (0 = default)")
	flag.IntVar(&opts.nodeLimit, "node-limit", 0, "e-graph node limit (0 = default)")
	flag.DurationVar(&opts.timeLimit, "time-limit", 0, "saturation time limit (0 = default)")
	flag.IntVar(&opts.workers, "workers", 0, "match-phase worker pool size (0 = GOMAXPROCS, 1 = serial)")
	flag.BoolVar(&opts.naive, "naive", false, "disable semi-naive (delta-frontier) matching; re-match the full database every iteration")
	flag.BoolVar(&opts.stats, "stats", false, "print optimization statistics (with a per-rule metrics table) to stderr")
	flag.StringVar(&opts.statsJSON, "stats-json", "", "write optimization statistics as JSON to this file")
	flag.StringVar(&opts.traceFile, "trace", "", "write a Chrome trace-event file (Perfetto-loadable) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.BoolVar(&opts.explain, "explain", false, "print a proof for every rewritten operation to stderr")
	flag.StringVar(&opts.journalFile, "journal", "", "write an e-graph event journal (JSONL, replayable with egg-debug) to this file")
	flag.IntVar(&opts.snapshotEvery, "snapshot-every", 0, "embed an e-graph snapshot in the journal every N saturation iterations (0 = none)")
	flag.BoolVar(&opts.explainExtr, "explain-extraction", false, "print an extraction-decision report for every rewritten operation to stderr")
	flag.StringVar(&opts.profileFile, "profile", "", "write a saturation-profile artifact (per-rule cost/benefit + extraction blame; egg-prof readable) to this file")
	flag.IntVar(&opts.profileSample, "profile-sample", 0, "sample every Nth match root for premise-selectivity statistics in the profile (0 = off)")
	flag.StringVar(&opts.scheduler, "scheduler", "", "rule scheduling strategy: simple, backoff[:threshold=N,factor=N,ban=N], or matchlimit[:N] (default simple)")
	flag.StringVar(&opts.scheduleFile, "schedule", "", "load a tuned dialegg-schedule/v2 artifact (egg-tune output) and use its entry for the -rules set; -scheduler overrides")
	flag.Parse()
	opts.eggFiles = eggFiles

	var stopCPU func() error
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egg-opt:", err)
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
		fmt.Fprintln(os.Stderr, "egg-opt:", runErr)
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
		return fmt.Errorf("expected at most one input file, got %d", flag.NArg())
	}
	if err != nil {
		return err
	}

	ruleSrcs, err := rules.Bundle(opts.ruleSet)
	if err != nil {
		return err
	}
	for _, f := range opts.eggFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		ruleSrcs = append(ruleSrcs, string(b))
	}

	// A tuned artifact supplies the -rules set's entry (or its default),
	// and an explicit -scheduler spec overrides.
	scheduler, err := sched.Load(opts.scheduleFile, opts.ruleSet, opts.scheduler)
	if err != nil {
		return err
	}

	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(string(src), reg)
	if err != nil {
		return err
	}
	if err := reg.Verify(m.Op); err != nil {
		return fmt.Errorf("input verification: %w", err)
	}

	var rec *obs.Recorder
	if opts.traceFile != "" {
		rec = obs.NewRecorder()
	}
	var jw *journal.Writer
	if opts.journalFile != "" {
		jw, err = journal.Create(opts.journalFile)
		if err != nil {
			return fmt.Errorf("opening journal: %w", err)
		}
		jw.SnapshotEvery = opts.snapshotEvery
		defer func() {
			if cerr := jw.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing journal: %w", cerr)
			}
		}()
	}

	if opts.greedy {
		pm := passes.NewPassManager(reg).Add(passes.NewMatmulReassociate())
		if _, err := pm.Run(m); err != nil {
			return err
		}
	} else if !opts.noDialEgg {
		opt := dialegg.NewOptimizer(dialegg.Options{
			RuleSources: ruleSrcs,
			RunConfig: egraph.RunConfig{
				IterLimit:     opts.iterLimit,
				NodeLimit:     opts.nodeLimit,
				TimeLimit:     opts.timeLimit,
				Workers:       opts.workers,
				Naive:         opts.naive,
				ProfileSample: opts.profileSample,
				Recorder:      rec,
				Scheduler:     scheduler,
			},
			KeepEggProgram:    opts.emitEgg,
			ExplainRewrites:   opts.explain,
			Journal:           jw,
			ExplainExtraction: opts.explainExtr,
			Blame:             opts.profileFile != "",
		})
		rep, err := opt.OptimizeModule(m)
		if err != nil {
			return err
		}
		if opts.emitEgg {
			fmt.Print(rep.EggProgram)
			return nil
		}
		if opts.explain {
			for _, proof := range rep.RewriteExplanations {
				fmt.Fprintln(os.Stderr, proof)
			}
		}
		if opts.explainExtr {
			for _, r := range rep.ExtractionReports {
				fmt.Fprintln(os.Stderr, r)
			}
		}
		if opts.stats {
			printStats(os.Stderr, rep)
		}
		if opts.statsJSON != "" {
			if err := obs.WriteJSONFile(opts.statsJSON, rep); err != nil {
				return fmt.Errorf("writing stats JSON: %w", err)
			}
		}
		if opts.profileFile != "" {
			if err := profile.FromRunReport(rep.Run, rep.Blame).Write(opts.profileFile); err != nil {
				return fmt.Errorf("writing profile: %w", err)
			}
		}
	}

	if opts.canon {
		pm := passes.NewPassManager(reg).Add(passes.NewCanonicalize())
		if _, err := pm.Run(m); err != nil {
			return err
		}
	}

	if rec != nil {
		if err := rec.WriteTraceFile(opts.traceFile); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}

	if err := reg.Verify(m.Op); err != nil {
		return fmt.Errorf("output verification: %w", err)
	}
	fmt.Print(mlir.PrintModule(m, reg))
	return nil
}

// printStats renders the --stats report: pipeline totals, per-iteration
// lines, and the per-rule metrics table, all on w (stderr) so stdout stays
// pipeable MLIR.
func printStats(w io.Writer, rep *dialegg.Report) {
	fmt.Fprintf(w, "rules: %d, translated ops: %d, opaque ops: %d\n",
		rep.NumRules, rep.NumTranslatedOps, rep.NumOpaqueOps)
	fmt.Fprintf(w, "saturation: %d iterations, %d nodes, stop: %s, workers: %d, rows scanned: %d\n",
		rep.Run.Iterations, rep.Run.Nodes, rep.Run.Stop, rep.Run.Workers, rep.Run.RowsScanned)
	fmt.Fprintf(w, "times: mlir->egg %v, egglog %v (saturation %v = match %v + apply %v + rebuild %v), egg->mlir %v\n",
		rep.MLIRToEgg, rep.EggTotal, rep.Saturation, rep.SatMatch, rep.SatApply, rep.SatRebuild, rep.EggToMLIR)
	fmt.Fprint(w, egraph.FormatIterStats(rep.Run.PerIter))
	if len(rep.Run.Rules) > 0 {
		fmt.Fprint(w, egraph.FormatRuleStats(rep.Run.Rules))
	}
	fmt.Fprintf(w, "extracted cost: %d\n", rep.ExtractCost)
}
