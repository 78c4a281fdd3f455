package dialegg

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/obs"
	"dialegg/internal/obs/journal"
)

// Options configures an Optimizer.
type Options struct {
	// RuleSources are egglog source texts executed after the prelude:
	// operation declarations, cost models, and rewrite rules (the user's
	// .egg files).
	RuleSources []string
	// RunConfig bounds and observes each function's saturation run.
	RunConfig egraph.RunConfig
	// Codecs supplies custom type/attribute eggifiers and de-eggifiers
	// (§5.2); nil uses only the built-in encodings.
	Codecs *Codecs
	// ExplainRewrites records union provenance during saturation and
	// attaches, per rewritten operation, a proof of why the original and
	// replacement are equal (Report.RewriteExplanations).
	ExplainRewrites bool
	// Journal, when non-nil, records every e-graph mutation as an event
	// journal; each optimized function opens its own graph segment labeled
	// with the function name, replayable with egg-debug. The writer's
	// SnapshotEvery sets how often the saturation runs embed snapshots.
	Journal *journal.Writer
	// ExplainExtraction attaches, per rewritten operation, a report of the
	// extraction decision for its replacement: the chosen node with its
	// cost breakdown, up to three rejected alternatives per e-class, and
	// the creating rule of every node (Report.ExtractionReports).
	ExplainExtraction bool
	// Blame runs extraction blame analysis after each function's
	// extraction, joining per-row rule provenance against the extraction
	// decisions (Report.Blame): every constructor row a rule created is
	// classified as extracted, rejected, or pure waste. This is the
	// cost/benefit join the saturation profiler renders; it costs one
	// extra graph walk per function. The cost side, per-rule match and
	// apply accounting, is in every run's report (Report.Run.Rules).
	Blame bool
}

// Report records one optimization run, matching the paper's Table 2
// columns: translation time to Egglog (which inserts the function's
// e-nodes as it goes), total time inside Egglog (cloning the rule set,
// saturation, extraction), the saturation portion, and translation time
// back to MLIR. Duration fields marshal as nanoseconds in the stats-JSON
// output (`_ns` suffix).
type Report struct {
	MLIRToEgg  time.Duration `json:"mlir_to_egg_ns"`
	EggTotal   time.Duration `json:"egg_total_ns"`
	Saturation time.Duration `json:"saturation_ns"`
	EggToMLIR  time.Duration `json:"egg_to_mlir_ns"`

	// SatMatch, SatApply, and SatRebuild split Saturation into the
	// engine's three phases (match is the parallel one; see
	// RunConfig.Workers).
	SatMatch   time.Duration `json:"sat_match_ns"`
	SatApply   time.Duration `json:"sat_apply_ns"`
	SatRebuild time.Duration `json:"sat_rebuild_ns"`

	// Run is the saturation engine report (iterations, nodes, stop
	// reason, per-iteration and per-rule stats). For a module it is the
	// aggregate across functions: counters and per-rule metrics summed,
	// final-state fields from the last function.
	Run egraph.RunReport `json:"run"`
	// NumRules counts user rewrite rules (excluding the prelude's and the
	// generated type-of analyses).
	NumRules int `json:"num_rules"`
	// NumTranslatedOps and NumOpaqueOps count how MLIR ops were encoded.
	NumTranslatedOps int `json:"num_translated_ops"`
	NumOpaqueOps     int `json:"num_opaque_ops"`
	// ExtractDAGCost is ExtractCost with each distinct subterm counted
	// once (egraph.Extractor.DAGCost), as the back-translation emits each
	// as one SSA definition. It includes block elements that the
	// back-translation then sweeps as dead: 150,000 of matmul_assoc.mlir's
	// 170,015 is the original A×B.
	ExtractDAGCost int64 `json:"extract_dag_cost"`
	// ExtractCost is the cost of the extracted program under the e-graph
	// cost model.
	ExtractCost int64 `json:"extract_cost"`
	// Blame holds the per-rule extraction blame rows when Options.Blame is
	// set; for a module it is the per-function results folded with
	// egraph.MergeBlame.
	Blame []egraph.BlameRow `json:"blame,omitempty"`
	// RewriteExplanations holds one rendered proof per rewritten operation
	// when Options.ExplainRewrites is set.
	RewriteExplanations []string `json:"-"`
	// ExtractionReports holds one rendered extraction-decision report per
	// rewritten operation when Options.ExplainExtraction is set.
	ExtractionReports []string `json:"-"`
}

// Total returns the end-to-end optimization time.
func (r *Report) Total() time.Duration { return r.MLIRToEgg + r.EggTotal + r.EggToMLIR }

// merge accumulates another function's report (module-level totals).
// Engine run reports are folded with egraph.RunReport.Merge, so the
// module totals keep every function's iterations, per-iteration stats,
// and per-rule metrics rather than just the largest run's.
func (r *Report) merge(o *Report) {
	r.MLIRToEgg += o.MLIRToEgg
	r.EggTotal += o.EggTotal
	r.Saturation += o.Saturation
	r.EggToMLIR += o.EggToMLIR
	r.SatMatch += o.SatMatch
	r.SatApply += o.SatApply
	r.SatRebuild += o.SatRebuild
	r.NumTranslatedOps += o.NumTranslatedOps
	r.NumOpaqueOps += o.NumOpaqueOps
	r.ExtractCost += o.ExtractCost
	r.ExtractDAGCost += o.ExtractDAGCost
	if r.NumRules == 0 {
		r.NumRules = o.NumRules
	}
	r.Run.Merge(o.Run)
	r.Blame = egraph.MergeBlame(r.Blame, o.Blame)
	r.RewriteExplanations = append(r.RewriteExplanations, o.RewriteExplanations...)
	r.ExtractionReports = append(r.ExtractionReports, o.ExtractionReports...)
}

// Optimizer is the DialEgg driver: it owns the rule sources and applies
// equality-saturation optimization to MLIR functions and modules.
type Optimizer struct {
	opts Options
	// key names the template of the rule set (see template.go).
	key templateKey
}

// NewOptimizer returns a driver for the given options.
func NewOptimizer(opts Options) *Optimizer {
	return &Optimizer{opts: opts, key: templateKeyOf(opts.RuleSources, opts.ExplainRewrites)}
}

// OptimizeFuncCtx runs the full DialEgg pipeline on one function and
// returns the optimized replacement. ctx is threaded into the saturation
// run (overriding Options.RunConfig.Ctx), so an abandoned request stops
// consuming CPU mid-saturation instead of running to its iteration or
// time limit. A canceled run returns a non-nil *Report whose
// Run.Stop is egraph.StopCanceled alongside an error wrapping ctx's
// error, so callers (the serve layer) can still account the partial work.
func (o *Optimizer) OptimizeFuncCtx(ctx context.Context, f *mlir.Operation) (*mlir.Operation, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, &Report{Run: egraph.RunReport{Stop: egraph.StopCanceled}}, fmt.Errorf("dialegg: %w", err)
	}
	report := &Report{}
	rec := o.opts.RunConfig.Recorder
	if rec.Enabled() {
		rec.SetLaneName(obs.LanePipeline, "pipeline")
	}

	// Phase 0 (counted into EggTotal, like loading the .egg file into
	// egglog): clone the rule set's template — prelude + user
	// declarations/rules + preparation scan, built once per process.
	startEgg := time.Now()
	tmpl, err := o.template()
	if err != nil {
		return nil, nil, err
	}
	p := tmpl.prog.Clone()
	encs := tmpl.encs
	report.NumRules = tmpl.numRules
	if o.opts.Journal.Enabled() {
		// The template's recorded history back-fills the segment, so the
		// function's graph is replayable from scratch.
		p.SetJournal(o.opts.Journal, mlir.FuncName(f))
	}
	report.EggTotal += time.Since(startEgg)
	if rec.Enabled() {
		rec.Complete(obs.LanePipeline, "phase", "load-rules", startEgg, time.Since(startEgg), nil)
	}

	// Phase 1: MLIR -> Egglog, inserting each e-node as the walk reaches
	// it.
	startToEgg := time.Now()
	tr, err := translateFunc(f, encs, o.opts.Codecs, p.Graph())
	if err != nil {
		return nil, nil, err
	}
	report.MLIRToEgg = time.Since(startToEgg)
	if rec.Enabled() {
		rec.Complete(obs.LanePipeline, "phase", "mlir-to-egg", startToEgg, report.MLIRToEgg, map[string]int64{
			"translated_ops": int64(tr.NumTranslated),
			"opaque_ops":     int64(tr.NumOpaque),
		})
	}
	report.NumTranslatedOps = tr.NumTranslated
	report.NumOpaqueOps = tr.NumOpaque

	// Phase 2: Egglog — saturate, extract.
	startSat := time.Now()
	cfg := o.opts.RunConfig
	cfg.Ctx = ctx
	run := p.RunRules(cfg)
	if run.Err != nil {
		return nil, nil, fmt.Errorf("dialegg: saturation: %w", run.Err)
	}
	report.Saturation = time.Since(startSat)
	report.Run = run
	report.SatMatch = run.MatchTime
	report.SatApply = run.ApplyTime
	report.SatRebuild = run.RebuildTime
	if run.Stop == egraph.StopCanceled {
		cerr := ctx.Err()
		if cerr == nil {
			cerr = context.Canceled
		}
		return nil, report, fmt.Errorf("dialegg: saturation canceled: %w", cerr)
	}
	if rec.Enabled() {
		rec.Complete(obs.LanePipeline, "phase", "saturate", startSat, report.Saturation, map[string]int64{
			"iterations": int64(run.Iterations),
			"nodes":      int64(run.Nodes),
		})
	}
	// One extractor serves extraction, DAG cost, blame, both kinds of
	// explanation and the back-translation: the graph is rebuilt and the
	// cost fixpoint run once. DAGCost fails unless every class the root
	// reaches has a chosen node.
	startExtract := time.Now()
	root := tr.Root
	ex := p.Extractor()
	if report.ExtractDAGCost, err = ex.DAGCost(root); err != nil {
		return nil, nil, fmt.Errorf("dialegg: extraction: %w", err)
	}
	report.ExtractCost, _ = ex.CostOf(root)
	if rec.Enabled() {
		rec.Complete(obs.LanePipeline, "phase", "extract", startExtract, time.Since(startExtract), map[string]int64{
			"cost":     report.ExtractCost,
			"dag_cost": report.ExtractDAGCost,
		})
	}
	if o.opts.Blame {
		blame, berr := ex.Blame([]egraph.Value{root})
		if berr != nil {
			return nil, nil, fmt.Errorf("dialegg: blame analysis: %w", berr)
		}
		report.Blame = blame
	}
	report.EggTotal += time.Since(startSat)

	if o.opts.ExplainRewrites || o.opts.ExplainExtraction {
		pairs := collectRewrites(ex, p.Graph(), f.Regions[0].First(), root, tr, encs)
		if o.opts.ExplainRewrites {
			report.RewriteExplanations = explainRewrites(p.Graph(), ex, tr, pairs)
		}
		if o.opts.ExplainExtraction {
			report.ExtractionReports = explainExtractions(ex, pairs)
		}
	}

	// Phase 3: Egglog -> MLIR.
	startBack := time.Now()
	nf, err := rebuildFunc(f, p.Graph(), ex, root, tr, encs, o.opts.Codecs)
	if err != nil {
		return nil, nil, fmt.Errorf("dialegg: back-translation: %w", err)
	}
	report.EggToMLIR = time.Since(startBack)
	if rec.Enabled() {
		rec.Complete(obs.LanePipeline, "phase", "egg-to-mlir", startBack, report.EggToMLIR, nil)
	}
	return nf, report, nil
}

// EggProgram renders the translation of m as the egglog program of §5.3
// without optimizing: each func.func's (let opN term) commands with the
// rule set's encodings, one let per line, functions separated by a blank
// line. Evaluating a function's lets inserts the nodes OptimizeFuncCtx
// inserts, in the same order. As in OptimizeModule, the rule set loads at
// the first function and errors name the function.
func (o *Optimizer) EggProgram(m *mlir.Module) (string, error) {
	var b strings.Builder
	for _, op := range m.Body().Ops {
		if op.Name != "func.func" {
			continue
		}
		tmpl, err := o.template()
		if err != nil {
			return "", fmt.Errorf("dialegg: @%s: %w", mlir.FuncName(op), err)
		}
		lets, err := renderFunc(op, tmpl.encs, o.opts.Codecs)
		if err != nil {
			return "", fmt.Errorf("dialegg: @%s: %w", mlir.FuncName(op), err)
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		for _, l := range lets {
			b.WriteString(l.String())
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// OptimizeModule optimizes every func.func in the module in place and
// returns the aggregated report.
func (o *Optimizer) OptimizeModule(m *mlir.Module) (*Report, error) {
	ctx := o.opts.RunConfig.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return o.OptimizeModuleCtx(ctx, m)
}

// OptimizeModuleCtx is OptimizeModule with cancellation (see
// OptimizeFuncCtx). On error the returned report still aggregates every
// completed function plus the failing function's partial measurements, so
// a canceled module run reports the StopCanceled stop reason.
func (o *Optimizer) OptimizeModuleCtx(ctx context.Context, m *mlir.Module) (*Report, error) {
	total := &Report{}
	body := m.Body()
	for i, op := range body.Ops {
		if op.Name != "func.func" {
			continue
		}
		nf, rep, err := o.OptimizeFuncCtx(ctx, op)
		if err != nil {
			if rep != nil {
				total.merge(rep)
			}
			return total, fmt.Errorf("dialegg: @%s: %w", mlir.FuncName(op), err)
		}
		nf.ParentBlock = body
		body.Ops[i] = nf
		total.merge(rep)
	}
	return total, nil
}
