package main

import (
	"fmt"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/mlir"
	"dialegg/internal/obs"
)

// Layer span names, in pipeline order.
const (
	layerParse     = "mlir.parse"
	layerLoadRules = "egglog.load_rules"
	layerToEgg     = "dialegg.to_egg"
	layerInsert    = "egglog.insert"
	layerSaturate  = "egraph.saturate"
	layerExtract   = "egraph.extract"
	layerFromEgg   = "dialegg.from_egg"
	layerPrint     = "mlir.print"
)

var layers = []string{layerParse, layerLoadRules, layerToEgg, layerInsert,
	layerSaturate, layerExtract, layerFromEgg, layerPrint}

// phaseLayers names the phase spans dialegg.OptimizeFuncCtx records on the
// pipeline lane by the layer each one times. load-rules includes
// dialegg.Prepare.
var phaseLayers = map[string]string{
	"load-rules":  layerLoadRules,
	"mlir-to-egg": layerToEgg,
	"saturate":    layerSaturate,
	"extract":     layerExtract,
	"egg-to-mlir": layerFromEgg,
}

// opSpan names the root span of one compile; its layer spans are children.
const opSpan = "compile"

// compile is one compile as a user of the library runs it: parse,
// dialegg.OptimizeModule with default options, canonical print. A non-nil
// rec is handed to the optimizer, which records its phase spans there,
// and also gets a span for the parse and one for the print.
func compile(rec *obs.Recorder, src string, rules []string) (string, *dialegg.Report, error) {
	reg := dialects.NewRegistry()
	t := time.Now()
	m, err := mlir.ParseModule(src, reg)
	rec.Complete(obs.LanePipeline, "phase", layerParse, t, time.Since(t), nil)
	if err != nil {
		return "", nil, fmt.Errorf("parse: %w", err)
	}
	opts := dialegg.Options{RuleSources: rules}
	opts.RunConfig.Recorder = rec
	rep, err := dialegg.NewOptimizer(opts).OptimizeModule(m)
	if err != nil {
		return "", nil, err
	}
	t = time.Now()
	out := mlir.PrintModuleCanonical(m, reg)
	rec.Complete(obs.LanePipeline, "phase", layerPrint, t, time.Since(t), nil)
	return out, rep, nil
}

// opStats are the deterministic engine counters of one traced compile,
// summed over the module's functions, plus the saturation phase split the
// engine reports.
type opStats struct {
	loadCalls   int
	opaqueOps   int
	iterations  int
	nodes       int64
	rowsScanned int64
	matches     int
	unions      uint64
	dagCost     int64
	matchMS     float64
	applyMS     float64
	rebuildMS   float64
}

// tracedCompile runs compile with a recorder of its own and copies the
// pipeline's layer spans to rec, renamed after their layer, tagged with
// op, and under one root span for the whole compile. The engine's own
// spans (iterations, match tasks) stay behind. rec may be nil, which
// keeps nothing; the counters are returned either way.
func tracedCompile(rec *obs.Recorder, op int64, src string, rules []string) (string, opStats, error) {
	own := obs.NewRecorder()
	start := time.Now()
	out, rep, err := compile(own, src, rules)
	dur := time.Since(start)
	if err != nil {
		return "", opStats{}, err
	}
	st := opStats{
		opaqueOps:   rep.NumOpaqueOps,
		iterations:  rep.Run.Iterations,
		rowsScanned: rep.Run.RowsScanned,
		dagCost:     rep.ExtractDAGCost,
		matchMS:     ms(rep.SatMatch),
		applyMS:     ms(rep.SatApply),
		rebuildMS:   ms(rep.SatRebuild),
	}
	for _, it := range rep.Run.PerIter {
		st.matches += it.Matches
		st.unions += it.Unions
	}
	args := map[string]int64{"op": op}
	var toEggEnd time.Time
	for _, ev := range own.Events() {
		if ev.Lane != obs.LanePipeline || ev.Cat != "phase" {
			continue
		}
		name, evStart := ev.Name, own.Epoch().Add(ev.Start)
		if l, ok := phaseLayers[name]; ok {
			name = l
		}
		switch name {
		case layerLoadRules:
			st.loadCalls++
		case layerToEgg:
			toEggEnd = evStart.Add(ev.Dur)
		case layerSaturate:
			// The report's node count is the last function's; the span
			// carries each function's.
			st.nodes += ev.Args["nodes"]
			// Between the MLIR→egg and saturate spans the optimizer runs
			// Program.Execute on the translated function, inserting it into
			// the e-graph.
			rec.Complete(obs.LanePipeline, "layer", layerInsert, toEggEnd, evStart.Sub(toEggEnd), args)
		}
		rec.Complete(obs.LanePipeline, "layer", name, evStart, ev.Dur, args)
	}
	rec.Complete(obs.LanePipeline, "op", opSpan, start, dur, args)
	return out, st, nil
}

// opProfile is one op's spans folded by name: the root span's duration
// and every span name's self time, which is its duration minus the time
// its direct child spans cover.
type opProfile struct {
	dur  time.Duration
	self map[string]time.Duration
}

// coverage is the share of the op's time its child spans account for.
func (p *opProfile) coverage() float64 {
	if p.dur <= 0 {
		return 0
	}
	return 1 - float64(p.self[opSpan])/float64(p.dur)
}

// profileOps groups events by their "op" argument and computes each op's
// self times. Only ops with a root span named opSpan are returned. Spans
// of one op must nest properly, as traced compiles' spans do.
func profileOps(events []obs.Event) map[int64]*opProfile {
	byOp := make(map[int64][]obs.Event)
	for _, ev := range events {
		if id, ok := ev.Args["op"]; ok {
			byOp[id] = append(byOp[id], ev)
		}
	}
	out := make(map[int64]*opProfile, len(byOp))
	for id, evs := range byOp {
		// events arrive sorted by start, longest first on ties, so a parent
		// always precedes its children.
		p := &opProfile{self: make(map[string]time.Duration)}
		var stack []obs.Event
		for _, ev := range evs {
			for len(stack) > 0 && stack[len(stack)-1].Start+stack[len(stack)-1].Dur <= ev.Start {
				stack = stack[:len(stack)-1]
			}
			p.self[ev.Name] += ev.Dur
			if len(stack) > 0 {
				p.self[stack[len(stack)-1].Name] -= ev.Dur
			}
			if ev.Name == opSpan && len(stack) == 0 {
				p.dur = ev.Dur
			}
			stack = append(stack, ev)
		}
		if p.dur > 0 {
			out[id] = p
		}
	}
	return out
}
