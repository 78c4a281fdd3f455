package serve

import (
	"fmt"
	"runtime"

	"dialegg/internal/egraph"
	"dialegg/internal/sched"
)

// WatchdogConfig tunes the engine health watchdog: the saturation-
// explosion detector fed by the engine's live per-iteration gauges. The
// watchdog never stops a run — NodeLimit/TimeLimit own enforcement — it
// flags requests whose growth pattern predicts hitting those limits,
// increments egg_watchdog_trips_total, logs a structured warning, and
// marks the request's flight record so the evidence (the full span tree)
// is retrievable from /debugz/flightz after the fact.
type WatchdogConfig struct {
	// Disabled turns the watchdog off (live gauges still update).
	Disabled bool
	// GrowthFactor is the per-iteration node-growth ratio considered
	// explosive (default 2.0: the graph at least doubled).
	GrowthFactor float64
	// GrowthWindow is how many consecutive explosive iterations trip the
	// watchdog (default 3). Saturating workloads grow fast early and
	// flatten; sustained super-GrowthFactor growth is the signature of a
	// ruleset that will never converge.
	GrowthWindow int
	// MemBytes, when > 0, also trips the watchdog when the process heap
	// (runtime.MemStats.HeapAlloc, sampled once per iteration) exceeds
	// this watermark during a run.
	MemBytes uint64
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.GrowthFactor <= 1 {
		c.GrowthFactor = 2.0
	}
	if c.GrowthWindow <= 0 {
		c.GrowthWindow = 3
	}
	return c
}

// liveSink is the serving layer's egraph.Observer: one per job, it
// publishes the engine's per-iteration record as live gauges and per-rule
// counters, then runs the watchdog check. ObserveIter is called from the
// engine's serial section between iterations, so the struct needs no
// locking of its own.
type liveSink struct {
	s         *Server
	o         *requestObs
	hot       int // consecutive explosive iterations
	prevNodes int
}

func (s *Server) newLiveSink(o *requestObs) *liveSink {
	return &liveSink{s: s, o: o}
}

// ObserveIter implements egraph.Observer.
func (ls *liveSink) ObserveIter(iter int, st *egraph.IterStats, rules []sched.RuleIterStats) {
	t := ls.s.tel
	t.engineIter.Set(float64(iter))
	t.engineNodes.Set(float64(st.Nodes))
	t.engineClasses.Set(float64(st.Classes))
	t.engineLiveRows.Set(float64(st.LiveRows))
	t.engineDeadRows.Set(float64(st.DeadRows))
	t.engineDeltaRows.Set(float64(st.DeltaRows))
	t.engineMatches.Set(float64(st.Matches))
	for _, r := range rules {
		if r.Matched > 0 {
			t.ruleMatched.With(r.Rule).Add(uint64(r.Matched))
		}
		if r.Applied > 0 {
			t.ruleApplied.With(r.Rule).Add(uint64(r.Applied))
		}
		if r.Skipped {
			t.schedThrottled.With(r.Rule).Add(1)
		}
		if r.Limited {
			t.schedLimited.With(r.Rule).Add(1)
		}
	}
	ls.watchdog(iter, st)
}

// watchdog evaluates the explosion heuristics against this iteration.
func (ls *liveSink) watchdog(iter int, st *egraph.IterStats) {
	wd := ls.s.cfg.Watchdog
	if wd.Disabled {
		return
	}
	prev := ls.prevNodes
	ls.prevNodes = st.Nodes
	if prev > 0 && float64(st.Nodes) >= wd.GrowthFactor*float64(prev) {
		ls.hot++
	} else {
		ls.hot = 0
	}
	var reason string
	switch {
	case ls.hot >= wd.GrowthWindow:
		reason = fmt.Sprintf("growth-rate: nodes grew >=%.2gx for %d consecutive iterations (now %d)",
			wd.GrowthFactor, ls.hot, st.Nodes)
	case wd.MemBytes > 0:
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= wd.MemBytes {
			reason = fmt.Sprintf("memory-watermark: heap %d bytes >= limit %d", ms.HeapAlloc, wd.MemBytes)
		}
	}
	if reason != "" {
		ls.s.tripWatchdog(ls.o, reason, iter, st)
	}
}

// tripWatchdog records a watchdog trip: once per request it increments
// the trip counter, emits the structured warning, and marks the request
// so its flight record carries the verdict.
func (s *Server) tripWatchdog(o *requestObs, reason string, iter int, st *egraph.IterStats) {
	if !o.trip(reason) {
		return // already flagged; one trip per request
	}
	s.tel.watchdogTrips.Inc()
	id := ""
	if o != nil {
		id = o.id
	}
	s.logger.Warn("engine watchdog tripped",
		"request_id", id,
		"reason", reason,
		"iteration", iter,
		"nodes", st.Nodes,
		"classes", st.Classes,
		"matches", st.Matches,
	)
}
