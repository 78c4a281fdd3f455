// Command egg-tune is the offline scheduling autotuner: it replays a
// corpus of representative workloads under candidate rule-scheduling
// strategies (internal/sched), searches for the cheapest one whose
// extraction stays byte-identical to the unscheduled baseline, and emits
// a versioned dialegg-schedule/v2 artifact that egg-opt, egglog, and
// egg-serve load with -schedule. Each entry stores the winning strategy
// as its -scheduler spec.
//
// Usage:
//
//	egg-tune -o schedule.json             # tune the full corpus
//	egg-tune -workloads chain16 -budget 8 # quick, one workload
//
// cmd/egg-lint validates the emitted artifact.
//
// The objective is total match-phase row visits (rows_scanned), the
// engine's deterministic cost proxy: it does not move with the machine,
// so tuning results are reproducible. Candidates that change the
// extracted module are rejected outright — a tuned schedule may only
// change how fast saturation gets there, never where it lands.
//
// The search is a coarse parameter grid followed by a greedy hill-climb
// from the best grid point, bounded by -budget evaluations per workload.
// Each workload maps to the bundled rule set it exercises; the emitted
// artifact carries one entry per rule set plus a default entry (the
// globally best strategy) so unknown rule sets degrade gracefully.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dialegg/internal/bench"
	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
	"dialegg/internal/sched"
)

// workload is one tuning corpus entry: an MLIR module, the rule set it
// saturates under, and the run bounds. RuleSet names the artifact entry
// the tuned strategy is written to.
type workload struct {
	Name    string
	RuleSet string
	Source  string
	Rules   []string
	Config  egraph.RunConfig
}

// commAssocRules is the classic exploder: commutativity+associativity
// over integer addition, the workload where throttling pays most.
const commAssocRules = `
(rewrite (arith_addi ?a ?b ?t) (arith_addi ?b ?a ?t) :name "addi-comm")
(rewrite (arith_addi (arith_addi ?a ?b ?t) ?c ?t)
         (arith_addi ?a (arith_addi ?b ?c ?t) ?t) :name "addi-assoc")
`

// addChainSource builds an n-argument arith.addi chain.
func addChainSource(n int) string {
	var b strings.Builder
	b.WriteString("func.func @chain(")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%%x%d: i64", i)
	}
	b.WriteString(") -> i64 {\n  %t1 = arith.addi %x0, %x1 : i64\n")
	for i := 2; i < n; i++ {
		fmt.Fprintf(&b, "  %%t%d = arith.addi %%t%d, %%x%d : i64\n", i, i-1, i)
	}
	fmt.Fprintf(&b, "  func.return %%t%d : i64\n}\n", n-1)
	return b.String()
}

// corpus returns the tuning workloads: the paper's matmul-chain and
// polynomial benchmarks plus the comm/assoc explosion. Bounds mirror the
// benchmark harness at CI scale so a tune run stays in seconds.
func corpus() []workload {
	return []workload{
		{
			Name:    "chain16",
			RuleSet: "matmul",
			Source:  bench.MatmulChainSource("mm16", bench.NMMDims(16)),
			Rules:   rules.MatmulChain(),
			Config:  egraph.RunConfig{IterLimit: 120, NodeLimit: 2_000_000, MatchLimit: 2_000_000},
		},
		{
			Name:    "poly",
			RuleSet: "poly",
			Source:  bench.PolySource(64),
			Rules:   rules.Poly(),
			Config:  egraph.RunConfig{IterLimit: 64, NodeLimit: 1_000_000, MatchLimit: 1_000_000},
		},
		{
			Name:    "commassoc",
			RuleSet: "", // the artifact's default entry
			Source:  addChainSource(8),
			Rules:   rules.ImgConv(), // carrier rule set; the exploder rides along
			Config:  egraph.RunConfig{IterLimit: 16, NodeLimit: 500_000, MatchLimit: 500_000},
		},
	}
}

// evalResult is one candidate evaluation: the deterministic objective
// and the extracted module used as the identity guard.
type evalResult struct {
	Cost int64
	MLIR string
	Iter int
	Stop string
}

// evaluate saturates the workload under s and extracts.
func evaluate(w workload, s sched.Scheduler) (evalResult, error) {
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(w.Source, reg)
	if err != nil {
		return evalResult{}, fmt.Errorf("%s: parse: %w", w.Name, err)
	}
	cfg := w.Config
	cfg.Scheduler = s
	cfg.Workers = 1
	ruleSrcs := w.Rules
	if w.Name == "commassoc" {
		ruleSrcs = append(append([]string{}, ruleSrcs...), commAssocRules)
	}
	opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: ruleSrcs, RunConfig: cfg})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		return evalResult{}, fmt.Errorf("%s: optimize: %w", w.Name, err)
	}
	return evalResult{
		Cost: rep.Run.RowsScanned,
		MLIR: mlir.PrintModule(m, reg),
		Iter: rep.Run.Iterations,
		Stop: string(rep.Run.Stop),
	}, nil
}

// grid is the coarse first-stage search space.
func grid() []sched.Scheduler {
	var out []sched.Scheduler
	for _, threshold := range []int{8, 32, 128, 512} {
		for _, ban := range []int{2, 5} {
			out = append(out, sched.Backoff{Threshold: threshold, Factor: 2, BanLength: ban})
		}
	}
	for _, limit := range []int{64, 256, 1024} {
		out = append(out, sched.MatchLimit{Limit: limit})
	}
	return out
}

// neighbors yields the hill-climb moves from a strategy: each integer
// parameter doubled and halved (floors keep them meaningful), and a
// backoff's factor switched between 2 and 4.
func neighbors(s sched.Scheduler) []sched.Scheduler {
	var out []sched.Scheduler
	switch c := s.(type) {
	case sched.Backoff:
		for _, t := range []int{c.Threshold * 2, c.Threshold / 2} {
			if t >= 1 {
				out = append(out, sched.Backoff{Threshold: t, Factor: c.Factor, BanLength: c.BanLength})
			}
		}
		for _, b := range []int{c.BanLength * 2, c.BanLength / 2} {
			if b >= 1 {
				out = append(out, sched.Backoff{Threshold: c.Threshold, Factor: c.Factor, BanLength: b})
			}
		}
		factor := 4
		if c.Factor != 2 {
			factor = 2
		}
		out = append(out, sched.Backoff{Threshold: c.Threshold, Factor: factor, BanLength: c.BanLength})
	case sched.MatchLimit:
		for _, l := range []int{c.Limit * 2, c.Limit / 2} {
			if l >= 1 {
				out = append(out, sched.MatchLimit{Limit: l})
			}
		}
	}
	return out
}

// tuneOne searches one workload within the evaluation budget and returns
// its artifact entry (always stamped with baseline/tuned cost, "simple"
// when nothing beat the baseline) plus the evaluations spent.
func tuneOne(w workload, budget int, verbose bool) (sched.RulesetSchedule, int, error) {
	base, err := evaluate(w, nil)
	if err != nil {
		return sched.RulesetSchedule{}, 0, err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "egg-tune: %s baseline: %d rows, %d iters, stop %s\n",
			w.Name, base.Cost, base.Iter, base.Stop)
	}
	var best sched.Scheduler = sched.Simple{}
	bestCost := base.Cost
	evals := 0
	try := func(s sched.Scheduler) error {
		if evals >= budget {
			return nil
		}
		evals++
		r, err := evaluate(w, s)
		if err != nil {
			return err
		}
		ok := r.MLIR == base.MLIR
		if verbose {
			verdict := "rejected (extraction changed)"
			if ok {
				verdict = fmt.Sprintf("%d rows (%+.1f%%)", r.Cost, 100*float64(r.Cost-base.Cost)/float64(base.Cost))
			}
			fmt.Fprintf(os.Stderr, "egg-tune: %s %-40s %s\n", w.Name, s.Fingerprint(), verdict)
		}
		if ok && r.Cost < bestCost {
			best, bestCost = s, r.Cost
		}
		return nil
	}
	for _, s := range grid() {
		if err := try(s); err != nil {
			return sched.RulesetSchedule{}, evals, err
		}
	}
	// Greedy hill-climb: take the best neighbor until none improves or
	// the budget runs out (Simple has no neighbors, so it stops at once).
	for evals < budget {
		improvedFrom := bestCost
		for _, s := range neighbors(best) {
			if err := try(s); err != nil {
				return sched.RulesetSchedule{}, evals, err
			}
		}
		if bestCost == improvedFrom {
			break
		}
	}
	return sched.RulesetSchedule{
		RuleSet:      w.RuleSet,
		Scheduler:    best.Fingerprint(),
		BaselineCost: base.Cost,
		TunedCost:    bestCost,
	}, evals, nil
}

func main() {
	out := flag.String("o", "schedule.json", "output path for the dialegg-schedule/v2 artifact")
	budget := flag.Int("budget", 24, "candidate evaluations per workload (grid first, then hill-climb)")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: the full corpus)")
	verbose := flag.Bool("v", false, "log every candidate evaluation to stderr")
	flag.Parse()

	selected := corpus()
	if *workloads != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*workloads, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var subset []workload
		for _, w := range selected {
			if want[w.Name] {
				subset = append(subset, w)
				delete(want, w.Name)
			}
		}
		if len(want) > 0 {
			for n := range want {
				fmt.Fprintf(os.Stderr, "egg-tune: unknown workload %q\n", n)
			}
			os.Exit(2)
		}
		selected = subset
	}

	art := sched.NewArtifact()
	info := &sched.TunerInfo{Objective: "rows_scanned", Budget: *budget}
	haveDefault := false
	fmt.Printf("%-10s %-10s %12s %12s %8s  %s\n", "workload", "ruleset", "baseline", "tuned", "delta", "strategy")
	for _, w := range selected {
		entry, evals, err := tuneOne(w, *budget, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egg-tune:", err)
			os.Exit(1)
		}
		info.Workloads = append(info.Workloads, w.Name)
		info.Evaluated += evals
		art.Rulesets = append(art.Rulesets, entry)
		if entry.RuleSet == "" {
			haveDefault = true
		}
		label := entry.RuleSet
		if label == "" {
			label = "(default)"
		}
		fmt.Printf("%-10s %-10s %12d %12d %+7.1f%%  %s\n",
			w.Name, label, entry.BaselineCost, entry.TunedCost,
			100*float64(entry.TunedCost-entry.BaselineCost)/float64(entry.BaselineCost), entry.Scheduler)
	}
	if !haveDefault {
		// Unknown rule sets degrade to the seed behavior rather than an
		// arbitrary tuned strategy.
		art.Rulesets = append(art.Rulesets, sched.RulesetSchedule{RuleSet: "", Scheduler: sched.Simple{}.Fingerprint()})
	}
	art.Tuner = info
	art.Canonical()
	if err := art.Lint(); err != nil {
		fmt.Fprintln(os.Stderr, "egg-tune: emitted artifact fails lint:", err)
		os.Exit(1)
	}
	if err := art.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "egg-tune:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d workloads, %d evaluations)\n", *out, len(selected), info.Evaluated)
}
