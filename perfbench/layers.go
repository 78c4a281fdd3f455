package main

import (
	"bytes"

	"dialegg/internal/obs"
)

// addLayerMetrics derives the per-layer metrics of a traced run.
//
// Times come from the traced ops' spans in cfg.rec (median per op of each
// layer's self time) and from the engine's own phase split in phases.
// Counters come from counters, the traced compiles of the workload's
// distinct inputs in its output checks, averaged per input, so they repeat
// exactly for a given seed. untraced holds the untraced compile times the
// traced ones are compared with to give the tracing overhead.
func addLayerMetrics(r *result, cfg runConfig, untraced []float64, phases []opStats, counters []opStats) {
	profiles := profileOps(cfg.rec.Events())
	var opMS, cover []float64
	selfMS := make(map[string][]float64)
	for _, p := range profiles {
		opMS = append(opMS, ms(p.dur))
		cover = append(cover, p.coverage())
		for _, l := range layers {
			selfMS[l] = append(selfMS[l], ms(p.self[l]))
		}
	}
	n := len(profiles)
	r.check(n > 0 && n == len(phases), "%d traced compiles left spans of %d ops", len(phases), n)
	for _, l := range layers {
		r.add(l+".ms", "ms", median(selfMS[l]), n)
	}
	r.add("trace.overhead_pct", "%", (median(opMS)/median(untraced)-1)*100, n)
	r.add("trace.coverage", "ratio", median(cover), n)

	var match, apply, rebuild []float64
	for _, st := range phases {
		match = append(match, st.matchMS)
		apply = append(apply, st.applyMS)
		rebuild = append(rebuild, st.rebuildMS)
	}
	r.add("egraph.saturate.match_ms", "ms", median(match), len(phases))
	r.add("egraph.saturate.apply_ms", "ms", median(apply), len(phases))
	r.add("egraph.saturate.rebuild_ms", "ms", median(rebuild), len(phases))

	var sum opStats
	for _, st := range counters {
		sum.loadCalls += st.loadCalls
		sum.opaqueOps += st.opaqueOps
		sum.iterations += st.iterations
		sum.nodes += st.nodes
		sum.rowsScanned += st.rowsScanned
		sum.matches += st.matches
		sum.unions += st.unions
	}
	k := float64(len(counters))
	r.add("egglog.load_rules.calls", "count", float64(sum.loadCalls)/k, len(counters))
	r.add("dialegg.to_egg.opaque_ops", "count", float64(sum.opaqueOps)/k, len(counters))
	r.add("egraph.saturate.iterations", "count", float64(sum.iterations)/k, len(counters))
	r.add("egraph.saturate.nodes", "count", float64(sum.nodes)/k, len(counters))
	r.add("egraph.saturate.rows_scanned", "count", float64(sum.rowsScanned)/k, len(counters))
	r.add("egraph.saturate.matches", "count", float64(sum.matches)/k, len(counters))
	useful := 0.0
	if sum.matches > 0 {
		useful = float64(sum.unions) / float64(sum.matches)
	}
	r.add("egraph.saturate.useful_ratio", "ratio", useful, len(counters))

	var buf bytes.Buffer
	err := cfg.rec.WriteTrace(&buf)
	if err == nil {
		_, err = obs.ValidateTrace(buf.Bytes())
	}
	r.check(err == nil, "trace does not validate: %v", err)
}
