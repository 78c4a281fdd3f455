package egraph

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"dialegg/internal/obs"
	"dialegg/internal/obs/journal"
	"dialegg/internal/sched"
)

// RunConfig bounds a saturation run. Zero fields get defaults. No field
// turns accounting on: every run reports its per-rule records
// (RunReport.Rules) and each iteration's census (IterStats).
type RunConfig struct {
	// Ctx, when non-nil, makes the run cancelable: the iteration loop
	// checks it alongside NodeLimit/TimeLimit, and the match phase
	// abandons queued tasks once it is done, so a run stops within one
	// match task of cancellation rather than at the next wall-clock
	// check. A canceled run reports StopCanceled; the e-graph is left
	// clean (canceled runs stop at an iteration boundary or skip the
	// apply phase entirely, never mid-apply). A nil Ctx means the run
	// cannot be canceled (context.Background semantics).
	Ctx context.Context
	// IterLimit caps saturation iterations (default 30).
	IterLimit int
	// NodeLimit stops the run when the e-graph exceeds this many e-nodes
	// (default 100_000).
	NodeLimit int
	// MatchLimit caps the matches enumerated per rule per iteration
	// (default 500_000). A match counts by its position in the merged
	// order whether or not it is applied, so the old matches a semi-naive
	// full-scan fallback enumerates but skips count toward the cap too.
	MatchLimit int
	// TimeLimit stops the run after this wall-clock duration
	// (default 30s).
	TimeLimit time.Duration
	// Workers bounds the match-phase worker pool (default GOMAXPROCS;
	// 1 runs the match phase serially). The applied rewrites are
	// identical for every worker count: matches are merged back in
	// rule-declaration order before the serial apply phase.
	Workers int
	// MatchShards caps how many shards a rule's top-level scan is split
	// into (default Workers). Sharding finer than the worker count
	// improves load balance; the merged match order is unchanged by
	// either knob.
	MatchShards int
	// Recorder, when non-nil, receives structured trace spans: one per
	// iteration and per phase on the engine lane, and one per match task
	// on its worker's lane (args: the task's rows, matches and
	// sub-query). The spans render as Chrome trace-event JSON via the
	// recorder's WriteTrace. A nil Recorder records nothing and costs
	// nothing.
	Recorder *obs.Recorder
	// Observer, when non-nil, receives each iteration's record while the
	// run is in progress — the feed the serving layer exports as live
	// Prometheus gauges and the engine health watchdog watches for
	// saturation explosions. It sees the same record every run builds
	// anyway; a nil Observer costs one pointer check per iteration and
	// changes nothing.
	Observer Observer
	// ProfileSample, when > 0, enables sampled premise-selectivity
	// collection (RunReport.Selectivity): every N-th top-level row of each
	// rule's match scan opens a traced sub-tree in which per-premise
	// execution/visit/match and access-path counters are recorded. 1
	// traces every top-level row (full profiling); 0 — the default —
	// collects nothing and costs one pointer check per premise entry.
	// Sampling is keyed to global row indices, never to shard boundaries,
	// so the counters are byte-identical for every Workers/MatchShards
	// setting; like the other observability knobs it changes no engine
	// behavior and is excluded from result cache keys.
	ProfileSample int
	// Scheduler, when non-nil, throttles rules adaptively: before each
	// match phase the runner asks the strategy for every rule's budget
	// (run, skip, or a per-iteration match cap) and reports the merged
	// per-rule outcome back after the iteration. Decisions are computed in
	// the runner's serial section from merged, worker-count-independent
	// statistics, so a scheduled run is byte-identical for every
	// Workers/MatchShards setting and in both match modes. A skipped rule
	// contributes no match tasks; a capped rule keeps the deterministic
	// prefix of its merged match list (the cap is enforced after merging,
	// never per task). Because skips and caps drop delta matches that
	// semi-naive mode would otherwise never revisit, the runner re-matches
	// such a rule against the full database the next time it runs.
	// Scheduler-imposed truncation does not stop the run (unlike
	// MatchLimit), and saturation is only declared on a no-growth
	// iteration without skips or binding caps — a banned rule keeps the
	// run alive until its ban expires, exactly like egg's
	// BackoffScheduler. Nil (or sched.Simple) behaves bit-identically to
	// the unscheduled engine. A scheduler changes results, so it is part
	// of the memo cache key (via Fingerprint), unlike the observability
	// knobs.
	Scheduler sched.Scheduler
	// Naive disables semi-naive delta matching, re-matching every rule
	// against the entire database each iteration. Semi-naive mode (the
	// default) matches only against rows inserted or re-canonicalized
	// since the previous iteration from iteration 2 onward; it applies
	// exactly the matches that are new, in the same relative order, so
	// the resulting e-graph is identical. Two caveats: MergeOverwrite
	// tables, whose last-writer-wins outputs can depend on naive mode's
	// redundant re-applications, and runs stopped by MatchLimit, where
	// each mode truncates a different prefix of the per-rule match list
	// (naive counts already-seen matches toward the cap). Semi-naive
	// results do not depend on the plan the hybrid planner picks for a
	// rule: delta sub-queries and a full-scan fallback apply the same new
	// matches in the same order. Within either mode, results stay
	// identical for every worker count.
	Naive bool
}

// WithDefaults returns the config with every zero field replaced by its
// engine default. Exported so layers that key on a config (the memo
// cache) hash the values the engine will actually run with, making
// explicit-default and zero-field configs cache-equivalent.
func (c RunConfig) WithDefaults() RunConfig { return c.withDefaults() }

func (c RunConfig) withDefaults() RunConfig {
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.IterLimit == 0 {
		c.IterLimit = 30
	}
	if c.NodeLimit == 0 {
		c.NodeLimit = 100_000
	}
	if c.MatchLimit == 0 {
		c.MatchLimit = 500_000
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MatchShards <= 0 {
		c.MatchShards = c.Workers
	}
	return c
}

// StopReason explains why a saturation run ended.
type StopReason string

// Stop reasons.
const (
	StopSaturated  StopReason = "saturated"
	StopIterLimit  StopReason = "iteration limit"
	StopNodeLimit  StopReason = "node limit"
	StopTimeLimit  StopReason = "time limit"
	StopRuleError  StopReason = "rule error"
	StopMatchLimit StopReason = "match limit"
	StopCanceled   StopReason = "canceled"
)

// RunReport summarizes a saturation run. Duration fields marshal as
// nanoseconds (Go's time.Duration JSON encoding); the `_ns` name suffix
// records that in the stats-JSON schema.
type RunReport struct {
	Iterations int           `json:"iterations"`
	Stop       StopReason    `json:"stop"`
	Nodes      int           `json:"nodes"`
	Classes    int           `json:"classes"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	// Workers is the match-phase worker count the run used.
	Workers int `json:"workers"`
	// MatchTime, ApplyTime, and RebuildTime total the three phases across
	// all iterations (MatchTime is wall time of the parallel phase, not
	// the sum over workers).
	MatchTime   time.Duration `json:"match_ns"`
	ApplyTime   time.Duration `json:"apply_ns"`
	RebuildTime time.Duration `json:"rebuild_ns"`
	// RowsScanned totals the match phase's row visits (scan loop
	// iterations plus direct lookups) across all iterations — the
	// quantity semi-naive matching shrinks.
	RowsScanned int64 `json:"rows_scanned"`
	// PerIter records per-iteration statistics for scalability studies.
	PerIter []IterStats `json:"per_iter,omitempty"`
	// Rules holds one RuleStats per rule, in rule-declaration order.
	Rules []RuleStats `json:"rules,omitempty"`
	// Selectivity holds per-rule sampled premise statistics in
	// rule-declaration order when RunConfig.ProfileSample was set.
	Selectivity []RuleSelectivity `json:"selectivity,omitempty"`
	// Err holds the first rule error, if Stop == StopRuleError.
	Err error `json:"-"`
}

// IterStats records one saturation iteration.
type IterStats struct {
	// Matches is the number of matches applied this iteration: the new
	// matches within the caps. Old matches a semi-naive full-scan
	// fallback re-finds are not applied, so they are not counted here
	// (RuleStats.Matched counts them).
	Matches int `json:"matches"`
	// Nodes is the e-node count after the iteration's rebuild.
	Nodes int `json:"nodes"`
	// Classes is the e-class count after the rebuild (EGraph.NumClasses).
	Classes int `json:"classes,omitempty"`
	// Unions counts effective unions performed by applies and rebuild;
	// RebuildUnions is the rebuild-only share (congruence repairs).
	Unions        uint64 `json:"unions"`
	RebuildUnions uint64 `json:"rebuild_unions"`
	// MatchTime, ApplyTime, RebuildTime split the iteration's phases.
	MatchTime   time.Duration `json:"match_ns"`
	ApplyTime   time.Duration `json:"apply_ns"`
	RebuildTime time.Duration `json:"rebuild_ns"`
	// RebuildPasses is how many passes Rebuild needed to restore
	// congruence (repair rounds).
	RebuildPasses int `json:"rebuild_passes"`
	// RowsScanned counts the iteration's match-phase row visits (scan
	// loop iterations plus direct lookups) summed over all tasks — the
	// sum of the rows args of the iteration's worker-lane match spans.
	RowsScanned int64 `json:"rows_scanned"`
	// DeltaRows is the size of the iteration's delta frontier: the live
	// rows inserted or re-canonicalized during the previous iteration,
	// which is all semi-naive matching scans at the top level.
	DeltaRows int `json:"delta_rows"`
	// SemiNaive reports whether this iteration matched delta-restricted
	// sub-queries (false for naive mode and for every run's first
	// iteration, which must match the full database).
	SemiNaive bool `json:"semi_naive"`
	// LiveRows and DeadRows census the database tables after the
	// iteration's rebuild (dead rows await compaction).
	LiveRows int `json:"live_rows,omitempty"`
	DeadRows int `json:"dead_rows,omitempty"`
	// Sched records the scheduler's effective interventions this
	// iteration: one entry per skipped rule and per rule whose matches a
	// scheduler cap actually truncated. Uncapped runs and caps that never
	// bound are not recorded (they are the common case and carry no
	// information). Empty without a scheduler.
	Sched []SchedDecision `json:"sched,omitempty"`
}

// SchedDecision is one scheduler intervention in one iteration, as
// surfaced in IterStats: which rule, what happened ("skip" or "limit"),
// and what it cost.
type SchedDecision struct {
	Rule string `json:"rule"`
	// Action is "skip" or "limit".
	Action string `json:"action"`
	// Limit is the match cap for "limit" entries.
	Limit int `json:"limit,omitempty"`
	// Dropped counts the matches the cap discarded: those enumerated
	// beyond it.
	Dropped int64 `json:"dropped,omitempty"`
}

// Saturated reports whether the run reached a fixed point.
func (r RunReport) Saturated() bool { return r.Stop == StopSaturated }

// Observer receives a saturation run's iteration records as they are
// made: the records every run builds, census included, so observing adds
// no engine work. ObserveIter is called from the runner's serial section
// after each completed iteration with its 1-based number within the run,
// the record the run appends to RunReport.PerIter, and every rule's
// outcome in declaration order (deltas, not run totals — the same slice
// the scheduler's RecordIter receives). Both are valid only for the
// duration of the call: the runner reuses them. Implementations must not
// call back into the e-graph.
type Observer interface {
	ObserveIter(iter int, st *IterStats, rules []sched.RuleIterStats)
}

// ruleMatches is one rule's merged matches for the apply phase: apply
// loads src's stored matches order[0:n] (the first n when order is nil).
// The struct and its buffers are reused across a run's iterations.
type ruleMatches struct {
	rule  *Rule
	src   *matchBuf
	order []int32
	n     int
	// buf concatenates the rule's task buffers when it ran as more than
	// one task; perm is the storage of order.
	buf  matchBuf
	perm []int32
	// truncated reports that the engine MatchLimit cut the rule's matches,
	// which stops the run; schedTruncated that a scheduler cap did, which
	// does not.
	truncated      bool
	schedTruncated bool
	// found is the number of matches enumerated, before any cap.
	found int64
}

// schedSkip reports whether the iteration's scheduler decisions exclude
// rule ri from the match plan (nil decisions mean every rule runs).
func schedSkip(decisions []sched.Decision, ri int) bool {
	return decisions != nil && decisions[ri].Action == sched.ActionSkip
}

// matchTask is one unit of match-phase work: one shard of one sub-query
// of one rule. sub < 0 is the full (naive) query sharded over the leading
// premise's table scan; sub >= 0 is the semi-naive sub-query with table
// ordinal `sub` delta-restricted, sharded over that table's frontier.
// Shards partition the scan into contiguous ascending ranges, so
// concatenating a sub-query's shard buffers in shard order yields its
// serial match sequence.
type matchTask struct {
	ruleIdx int
	sub     int
	lo, hi  int
	// onlyNew marks the hybrid planner's full-scan fallback, which keeps
	// only the matches that bind a delta row (matchSpec.onlyNew).
	onlyNew bool
	out     *matchBuf
	scanned int64
	err     error
	// sel holds the task's sampled selectivity counters when
	// RunConfig.ProfileSample is set; task-private until the phase
	// barrier, folded serially afterwards (summation is commutative, so
	// the aggregate is independent of worker scheduling).
	sel *selSink
	// began/took/worker time the task and name its worker's trace lane.
	// They live here — goroutine-private until the phase barrier — so
	// observability adds no shared-state traffic to the hot path; the
	// runner reads them serially after the pool drains.
	began  time.Time
	took   time.Duration
	worker int
}

// shardMinRows is the smallest top-level scan worth splitting across
// workers; below it the coordination overhead dominates.
const shardMinRows = 64

// shardRange appends copies of task t covering [0, n) in at most
// maxShards contiguous pieces (one whole-range task when n is small).
// worth is the useful-row count the split is judged on — live rows
// rather than the raw scan length, so a table dominated by tombstones is
// not over-split.
func shardRange(tasks []matchTask, t matchTask, n, worth, maxShards int) []matchTask {
	shards := 1
	if maxShards > 1 && worth >= shardMinRows {
		shards = min(maxShards, n)
	}
	if shards <= 1 {
		t.lo, t.hi = 0, -1
		return append(tasks, t)
	}
	for s := 0; s < shards; s++ {
		t.lo, t.hi = n*s/shards, n*(s+1)/shards
		tasks = append(tasks, t)
	}
	return tasks
}

// planMatchTasks appends to tasks each rule's full query, split into at
// most `maxShards` shards of its top-level scan. Rules whose first
// premise does not scan (or scans few live rows) get a single whole-range
// task; rules the scheduler skipped get none.
func (g *EGraph) planMatchTasks(tasks []matchTask, rules []*Rule, maxShards int, decisions []sched.Decision) []matchTask {
	for ri, r := range rules {
		if schedSkip(decisions, ri) {
			continue
		}
		n, live := g.firstPremiseScan(r)
		tasks = shardRange(tasks, matchTask{ruleIdx: ri, sub: -1}, n, live, maxShards)
	}
	return tasks
}

// planDeltaTasks emits the semi-naive plan: for each rule with k table
// premises, one sharded sub-query per ordinal whose table has a non-empty
// frontier. Rules whose premise tables all went untouched last iteration
// contribute no tasks at all — the saturated fringe of a run costs
// nothing, which is the point of semi-naive evaluation.
//
// The plan is hybrid: when a rule's summed frontiers are so large relative
// to its leading table scan that the k delta sub-queries would visit more
// rows than one full pass (each frontier row probes the other k-1
// premises, so the delta plan costs about Σ|frontier| × k), the rule falls
// back to its full query for this iteration. The fallback keeps only the
// matches that bind a delta row (onlyNew), which are exactly the matches
// the sub-queries would find, in the order their key sort would give; so
// it changes which rows are visited but not which matches are applied.
// Scheduling adds two cases: a skipped rule contributes no tasks, and a
// rule carrying full-scan debt (needFull — it was skipped or truncated
// since its last complete pass, so delta frontiers it never saw are gone)
// runs its full query regardless of the frontier state and applies every
// match. Re-found old matches are no-ops under the apply phase's frozen
// canonicalization, so the forced full pass restores completeness without
// changing a bit of the already-derived state.
func (g *EGraph) planDeltaTasks(tasks []matchTask, rules []*Rule, plans []rulePlan, maxShards int, decisions []sched.Decision, needFull []bool) []matchTask {
	for ri, r := range rules {
		if schedSkip(decisions, ri) {
			continue
		}
		if needFull != nil && needFull[ri] {
			n, live := g.firstPremiseScan(r)
			tasks = shardRange(tasks, matchTask{ruleIdx: ri, sub: -1}, n, live, maxShards)
			continue
		}
		tp := plans[ri].tables
		outer := 0
		for _, pi := range tp {
			outer += len(g.tab(r.Premises[pi].(*TablePremise).Fn).frontier)
		}
		if outer == 0 {
			continue
		}
		if n, live := g.firstPremiseScan(r); n > 0 && outer*len(tp) >= n+live {
			tasks = shardRange(tasks, matchTask{ruleIdx: ri, sub: -1, onlyNew: true}, n, live, maxShards)
			continue
		}
		for s, pi := range tp {
			fr := len(g.tab(r.Premises[pi].(*TablePremise).Fn).frontier)
			if fr == 0 {
				continue
			}
			tasks = shardRange(tasks, matchTask{ruleIdx: ri, sub: s}, fr, fr, maxShards)
		}
	}
	return tasks
}

// collect runs the match phase: every task e-matches against the frozen
// (rebuilt, canonical) graph on a pool of cfg.Workers goroutines, each
// filling its own buffer. Buffers are then merged in rule-declaration
// order, so the result is independent of worker count and scheduling.
// Within a rule, full-query shards concatenate in shard order; semi-naive
// sub-query matches are sorted by match key, which restores the exact
// relative order a naive match would enumerate those (new) matches in.
// Matching only reads the graph: pool interning, union-find path halving,
// and lazy index builds are internally synchronized.
//
// The tasks keep their row counts, timings and worker ids; the runner
// aggregates them serially after the phase. Scheduler decisions and
// full-scan debt (both nil for unscheduled runs) shape the plan — skipped
// rules get no tasks, indebted rules full-scan — and scheduler caps
// truncate the merged per-rule lists. Caps are applied only after the
// deterministic merge (never to per-task buffers), so the kept prefix is
// the same for every worker count and shard plan.
func (r *run) collect() (scanned int64, err error) {
	g, cfg := r.g, r.cfg
	if r.it.SemiNaive {
		r.tasks = g.planDeltaTasks(r.tasks[:0], r.rules, r.plans, cfg.MatchShards, r.decisions, r.needFull)
	} else {
		r.tasks = g.planMatchTasks(r.tasks[:0], r.rules, cfg.MatchShards, r.decisions)
	}
	tasks := r.tasks
	for len(r.bufs) < len(tasks) {
		r.bufs = append(r.bufs, matchBuf{})
	}
	for i := range tasks {
		tasks[i].out = &r.bufs[i]
	}

	runTask := func(worker, i int) {
		t := &tasks[i]
		t.worker = worker
		// A canceled run abandons queued tasks: the runner discards the
		// phase's matches anyway (it checks Ctx before applying), so
		// skipping bounds cancellation latency at one task, not one
		// iteration. Completed runs never skip — ctx errors are sticky —
		// so determinism for uncanceled runs is unaffected.
		t.out.reset()
		if cfg.Ctx.Err() != nil {
			return
		}
		t.began = time.Now()
		rule := r.rules[t.ruleIdx]
		spec := matchSpec{deltaOrd: t.sub, minStamp: r.minStamp, onlyNew: t.onlyNew}
		if cfg.ProfileSample > 0 {
			t.sel = newSelSink(rule, cfg.ProfileSample)
			spec.sel = t.sel
		}
		m := &r.runs[worker]
		m.reset(g, rule, &r.plans[t.ruleIdx], spec)
		m.out, m.limit = t.out, cfg.MatchLimit
		t.err = m.matchShard(t.lo, t.hi)
		t.scanned, t.out.found = m.scanned, m.found
		t.took = time.Since(t.began)
	}

	if workers := len(r.runs); workers <= 1 {
		for i := range tasks {
			runTask(0, i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range idx {
					runTask(w, i)
				}
			}(w)
		}
		for i := range tasks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	for i := range tasks {
		t := &tasks[i]
		if t.err != nil {
			// A failed phase reports no tasks and no matches.
			r.tasks = tasks[:0]
			return 0, fmt.Errorf("matching rule %s: %w", r.rules[t.ruleIdx].Name, t.err)
		}
		scanned += t.scanned
	}
	// Merge: declaration order across rules (the planner emits each rule's
	// tasks contiguously, in shard order).
	for i := range r.pending {
		rm := &r.pending[i]
		*rm = ruleMatches{rule: rm.rule, buf: rm.buf, perm: rm.perm}
	}
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].ruleIdx == tasks[lo].ruleIdx {
			hi++
		}
		r.merge(tasks[lo].ruleIdx, tasks[lo:hi])
		lo = hi
	}
	return scanned, nil
}

// merge builds rule ri's apply list from its tasks' buffers. Every cap
// counts matches by their position in the merged order: the engine
// MatchLimit first (a run that would hit it unscheduled still stops with
// StopMatchLimit), then the scheduler's cap, whose truncation never stops
// the run. Sub-query matches are all new and unique by key (each is
// generated by exactly one sub-query, the one whose delta ordinal is its
// first delta premise), so they are key-sorted and the first matches up
// to the cap kept. Full-query matches are in enumeration order already;
// those stored before the cap are kept, which under onlyNew skips the old
// matches among them.
func (r *run) merge(ri int, tasks []matchTask) {
	rm := &r.pending[ri]
	src := tasks[0].out
	if len(tasks) > 1 {
		src = &rm.buf
		src.reset()
		for i := range tasks {
			t := tasks[i].out
			if src.n == 0 {
				src.sorts = t.sorts
			}
			src.bits = append(src.bits, t.bits...)
			src.keys = append(src.keys, t.keys...)
			for _, p := range t.pos {
				src.pos = append(src.pos, int32(src.found)+p)
			}
			src.n += t.n
			src.found += t.found
		}
	}
	rm.src, rm.found = src, int64(src.found)
	limit := r.cfg.MatchLimit
	rm.truncated = src.found >= limit
	if r.decisions != nil && r.decisions[ri].Action == sched.ActionLimit {
		if lim := r.decisions[ri].Limit; lim > 0 && min(src.found, limit) > lim {
			limit, rm.schedTruncated = lim, true
		}
	}
	switch {
	case tasks[0].sub >= 0:
		rm.perm = rm.perm[:0]
		for i := range src.n {
			rm.perm = append(rm.perm, int32(i))
		}
		k, keys := len(r.plans[ri].tables), src.keys
		slices.SortFunc(rm.perm, func(a, b int32) int {
			return slices.Compare(keys[int(a)*k:int(a+1)*k], keys[int(b)*k:int(b+1)*k])
		})
		rm.order = rm.perm[:min(src.n, limit)]
		rm.n = len(rm.order)
	case tasks[0].onlyNew:
		rm.n, _ = slices.BinarySearch(src.pos, int32(min(limit, src.found)))
	default:
		rm.n = min(src.n, limit)
	}
}

// rowCensus counts live and dead (tombstoned, awaiting compaction) rows
// across all tables. O(#functions); used by the IterStats census.
func (g *EGraph) rowCensus() (live, dead int) {
	for _, t := range g.tables {
		live += t.live
		dead += len(t.rows) - t.live
	}
	return live, dead
}

// Run saturates the e-graph under the given rules: each iteration
// e-matches all rules against the current graph across a worker pool,
// merges the match buffers deterministically, applies every match's
// actions serially, then rebuilds congruence. The run stops at a fixed
// point (no new unions and no new nodes) or when a limit is hit.
//
// From the second iteration on (unless cfg.Naive is set) the match phase
// is semi-naive: it runs delta-restricted sub-queries that enumerate
// exactly the matches involving at least one row changed by the previous
// iteration. Matches over unchanged rows were already applied and
// re-applying them is a no-op (unions of already-equal classes, inserts
// of existing rows, idempotent merges), so the e-graph evolves
// identically — only the redundant work is skipped. Every run's first
// iteration matches the full database: mutations between runs carry no
// frontier, so the full match re-establishes the baseline the deltas are
// relative to.
//
// Observability is additive. Every run builds each completed iteration's
// record — its IterStats and one per-rule outcome slice — once, and it
// feeds every consumer: RunReport.PerIter and RunReport.Rules, the
// scheduler, cfg.Observer, the engine-lane spans of cfg.Recorder, and the
// journal's due snapshot. An absent Observer, Recorder or journal costs a
// pointer check. None of them changes which matches are found or applied.
func (g *EGraph) Run(rules []*Rule, cfg RunConfig) RunReport {
	r := g.newRun(rules, cfg)
	for ; r.iter < r.cfg.IterLimit; r.iter++ {
		if stop := r.plan(); stop != "" {
			r.report.Stop = stop
			break
		}
		if err := r.match(); err != nil {
			return r.abort(StopRuleError, err)
		}
		// A cancellation during the match phase may have skipped tasks, so
		// the merged buffers can be incomplete; applying them would make
		// the result depend on cancellation timing. Discard the phase and
		// stop — the graph is still clean (matching only reads).
		if r.cfg.Ctx.Err() != nil {
			return r.abort(StopCanceled, nil)
		}
		if err := r.apply(); err != nil {
			return r.abort(StopRuleError, err)
		}
		r.rebuild()
		if stop := r.finish(); stop != "" {
			r.report.Stop = stop
			break
		}
	}
	return r.end()
}

// run is one saturation run in progress: the config, the report being
// built, the scheduler's state, and the current iteration's record. All
// of it lives in the runner's serial section; the match workers only see
// the finished scheduler decisions.
type run struct {
	g      *EGraph
	rules  []*Rule
	cfg    RunConfig
	start  time.Time
	report RunReport

	// Scheduler state: one fresh Instance per run (strategies are
	// reusable; instances are not), the iteration's decision vector, and
	// the full-scan debt ledger.
	inst      sched.Instance
	decisions []sched.Decision
	needFull  []bool

	// Match state, reused across iterations: each rule's plan, the
	// iteration's tasks, one match buffer per task position, one matchRun
	// per worker, and apply's bindings.
	plans []rulePlan
	tasks []matchTask
	bufs  []matchBuf
	runs  []matchRun
	binds []Value

	// The current iteration (0-based): its record, its per-rule outcomes
	// in declaration order (one buffer reused across iterations), the
	// merged matches, the counters its growth is measured against, and
	// the start times its spans need.
	iter         int
	it           IterStats
	outcome      []sched.RuleIterStats
	pending      []ruleMatches
	minStamp     uint64
	unionsBefore uint64
	mergesBefore uint64
	rowsBefore   int
	iterStart    time.Time
	applyStart   time.Time
	rebuildStart time.Time

	// roots is the storage of the apply phase's frozen root snapshot,
	// reused across iterations.
	roots []uint32
}

// newRun opens a run: the journal's run bracket, the rules' plans, the
// report's per-rule sections, the scheduler instance, and the trace lane
// names.
func (g *EGraph) newRun(rules []*Rule, cfg RunConfig) *run {
	cfg = cfg.withDefaults()
	r := &run{
		g: g, rules: rules, cfg: cfg, start: time.Now(),
		report:  RunReport{Stop: StopIterLimit, Workers: cfg.Workers},
		outcome: make([]sched.RuleIterStats, 0, len(rules)),
		plans:   make([]rulePlan, len(rules)),
		pending: make([]ruleMatches, len(rules)),
		runs:    make([]matchRun, cfg.Workers),
	}
	r.report.Rules = make([]RuleStats, len(rules))
	for i, rule := range rules {
		r.plans[i] = planRule(rule)
		r.pending[i].rule = rule
		r.report.Rules[i].Name = rule.Name
	}
	if g.journal != nil {
		g.jEmit(journal.Event{Kind: journal.KRun, Workers: cfg.Workers})
	}
	if cfg.ProfileSample > 0 {
		r.report.Selectivity = make([]RuleSelectivity, len(rules))
		for i, rule := range rules {
			r.report.Selectivity[i] = newRuleSelectivity(rule, cfg.ProfileSample)
		}
	}
	if cfg.Scheduler != nil {
		r.inst = cfg.Scheduler.New()
		r.decisions = make([]sched.Decision, len(rules))
		r.needFull = make([]bool, len(rules))
	}
	if rec := cfg.Recorder; rec.Enabled() {
		rec.SetLaneName(obs.LaneEngine, "engine")
		for w := 0; w < cfg.Workers; w++ {
			rec.SetLaneName(obs.LaneWorker+w, fmt.Sprintf("match worker %d", w))
		}
	}
	return r
}

// plan opens the iteration, or returns why the run must stop before it:
// it restores congruence if a caller left the graph dirty, closes the
// semi-naive epoch, snapshots the counters the iteration's growth is
// measured against, and asks the scheduler for every rule's budget.
func (r *run) plan() StopReason {
	if r.cfg.Ctx.Err() != nil {
		return StopCanceled
	}
	if time.Since(r.start) > r.cfg.TimeLimit {
		return StopTimeLimit
	}
	g := r.g
	r.iterStart = time.Now()
	// The graph-lifetime iteration counter stamps row provenance and
	// union justifications; the journal's iter event marks the boundary
	// replay stops at for --to-iter.
	g.iterCur++
	if g.journal != nil {
		g.jEmit(journal.Event{Kind: journal.KIter})
	}
	// Matching relies on canonical rows (for safe concurrent reads and
	// the per-argument indexes). This is also what makes the match-phase
	// reads a consistent snapshot: no union or insert happens between here
	// and the end of the match phase.
	if !g.Clean() {
		g.Rebuild()
	}
	// Close the epoch: rows touched since the previous iteration's match
	// phase become the delta frontier this iteration scans.
	deltaRows, minStamp := g.advanceFrontier()
	r.minStamp = minStamp
	r.unionsBefore, r.mergesBefore = g.unionCount, g.mergeCount
	r.rowsBefore = g.TotalRows()
	r.it = IterStats{DeltaRows: deltaRows, SemiNaive: !r.cfg.Naive && r.iter > 0}
	// Scheduler decisions are computed serially before any worker starts,
	// from state the strategy built out of merged per-iteration outcomes —
	// never from wall time or goroutine order, which is the determinism
	// contract.
	if r.inst != nil {
		for i, rule := range r.rules {
			r.decisions[i] = r.inst.RuleBudget(rule.Name, r.iter+1)
		}
	}
	return ""
}

// match runs the match phase against the frozen view on the worker pool
// and folds what its tasks measured into the run: rows scanned, per-rule
// task metrics, sampled selectivity, and the worker-lane and match-phase
// spans. On success it starts the iteration's per-rule outcomes from the
// merged matches.
func (r *run) match() error {
	start := time.Now()
	scanned, err := r.collect()
	tasks := r.tasks
	r.it.MatchTime = time.Since(start)
	r.it.RowsScanned = scanned
	r.report.RowsScanned += scanned
	r.report.MatchTime += r.it.MatchTime
	rec := r.cfg.Recorder
	for i := range tasks {
		t := &tasks[i]
		if t.sel != nil {
			// Fold task sinks serially, in plan order. Summation is
			// commutative, so the aggregate depends only on which rows were
			// sampled — a function of global row indices, not of sharding.
			agg := &r.report.Selectivity[t.ruleIdx]
			agg.SampledRoots += t.sel.roots
			for j := range t.sel.prem {
				agg.Premises[j].add(t.sel.prem[j])
			}
		}
		rs := &r.report.Rules[t.ruleIdx]
		rs.RowsScanned += t.scanned
		rs.MatchTime += t.took
		// Count each (rule, sub-query) plan once, on its first shard:
		// sub >= 0 is a delta-restricted sub-query, sub < 0 a full scan
		// (naive iterations and hybrid fallbacks).
		if t.lo == 0 {
			if t.sub >= 0 {
				rs.DeltaQueries++
			} else {
				rs.FullScans++
			}
		}
		if rec.Enabled() {
			rec.Complete(obs.LaneWorker+t.worker, "match", r.rules[t.ruleIdx].Name, t.began, t.took, map[string]int64{
				"rows":    t.scanned,
				"matches": int64(t.out.found),
				"sub":     int64(t.sub),
			})
		}
	}
	if rec.Enabled() {
		rec.Complete(obs.LaneEngine, "phase", "match", start, r.it.MatchTime, map[string]int64{
			"rows":  scanned,
			"tasks": int64(len(tasks)),
		})
	}
	r.outcome = r.outcome[:0]
	if err != nil {
		return err
	}
	for i := range r.pending {
		rm := &r.pending[i]
		r.outcome = append(r.outcome, sched.RuleIterStats{
			Rule:    rm.rule.Name,
			Matched: rm.found,
			Skipped: schedSkip(r.decisions, i),
			Limited: rm.schedTruncated,
		})
	}
	return nil
}

// apply runs the apply phase serially, in merged (deterministic) order,
// so unions, inserts, and proof recording need no locking. The apply
// runs under the frozen iteration-start canonicalization
// (beginFrozenApply), so each match's effect depends only on the snapshot
// it was collected against — re-applying an old match is then a
// guaranteed no-op, which is what lets semi-naive mode skip old matches
// without changing a single bit of the result. Each match is loaded from
// its rule's buffer into one bindings slice the run reuses.
func (r *run) apply() error {
	g := r.g
	r.applyStart = time.Now()
	r.roots = g.beginFrozenApply(r.roots)
	defer g.endFrozenApply()
	applied := 0
	for ri := range r.pending {
		rm := &r.pending[ri]
		if rm.n == 0 {
			continue
		}
		slots := r.plans[ri].slots
		r.binds = slices.Grow(r.binds[:0], rm.rule.NumSlots)[:rm.rule.NumSlots]
		// Provenance context: rows and unions made while applying this
		// batch are stamped with the rule (endFrozenApply clears it).
		g.ruleCur = g.ruleID(rm.rule.Name)
		rs := &r.report.Rules[ri]
		batchStart, rowsBefore, unionsBefore := time.Now(), g.TotalRows(), g.unionCount
		for j := range rm.n {
			m := j
			if rm.order != nil {
				m = int(rm.order[j])
			}
			rm.src.load(r.binds, m, slots)
			// A match whose actions moved neither the union counter nor the
			// effect counter (new rows, merge changes, cost installs)
			// changed nothing — the per-rule no-op count is what makes naive
			// mode's redundant re-matching visible in --stats.
			before := g.unionCount + g.effects
			if err := g.ApplyActions(rm.rule, r.binds); err != nil {
				r.outcome[ri].Applied = int64(j)
				return fmt.Errorf("applying rule %s: %w", rm.rule.Name, err)
			}
			if g.unionCount+g.effects == before {
				rs.Noops++
			}
		}
		r.outcome[ri].Applied = int64(rm.n)
		applied += rm.n
		rs.ApplyTime += time.Since(batchStart)
		// Growth attribution: rows and unions the batch produced — the
		// live-run counterpart of the journal's per-row provenance.
		// Rebuild's congruence unions belong to no single rule.
		rs.RowsCreated += int64(g.TotalRows() - rowsBefore)
		rs.UnionsMade += g.unionCount - unionsBefore
	}
	r.it.Matches = applied
	r.it.ApplyTime = time.Since(r.applyStart)
	r.report.ApplyTime += r.it.ApplyTime
	return nil
}

// rebuild restores congruence after the apply phase.
func (r *run) rebuild() {
	g := r.g
	r.rebuildStart = time.Now()
	unionsBefore := g.unionCount
	r.it.RebuildPasses = g.Rebuild()
	r.it.RebuildUnions = g.unionCount - unionsBefore
	r.it.RebuildTime = time.Since(r.rebuildStart)
	r.report.RebuildTime += r.it.RebuildTime
}

// finish completes the iteration's record and feeds every consumer from
// it: the journal's due snapshot, the scheduler, RunReport.PerIter and
// Rules, the Observer, and the engine-lane spans. It returns why the run
// stops after this iteration, or "" to go on.
func (r *run) finish() StopReason {
	g, it := r.g, &r.it
	// The graph is clean (just rebuilt), so the snapshot captures the
	// exact state replay reaches when it stops after this iteration.
	if g.journal.SnapshotDue(r.iter + 1) {
		if b, err := json.Marshal(g.Snapshot(int(g.iterCur))); err == nil {
			g.jEmit(journal.Event{Kind: journal.KSnapshot, Snapshot: b})
		}
	}
	r.report.Iterations = r.iter + 1
	it.Nodes = g.NumNodes()
	it.Unions = g.unionCount - r.unionsBefore
	it.Classes = g.NumClasses()
	it.LiveRows, it.DeadRows = g.rowCensus()
	schedActive := r.recordSched()
	r.report.PerIter = append(r.report.PerIter, *it)
	r.foldRules(true)
	if r.cfg.Observer != nil {
		r.cfg.Observer.ObserveIter(r.iter+1, it, r.outcome)
	}
	if rec := r.cfg.Recorder; rec.Enabled() {
		rec.Complete(obs.LaneEngine, "phase", "apply", r.applyStart, it.ApplyTime, map[string]int64{
			"matches": int64(it.Matches),
		})
		rec.Complete(obs.LaneEngine, "phase", "rebuild", r.rebuildStart, it.RebuildTime, map[string]int64{
			"passes": int64(it.RebuildPasses),
			"unions": int64(it.RebuildUnions),
		})
		rec.Complete(obs.LaneEngine, "iter", fmt.Sprintf("iteration %d", r.iter+1), r.iterStart, time.Since(r.iterStart), map[string]int64{
			"matches":    int64(it.Matches),
			"nodes":      int64(it.Nodes),
			"delta_rows": int64(it.DeltaRows),
			"unions":     int64(it.Unions),
		})
	}

	for _, rm := range r.pending {
		if rm.truncated {
			return StopMatchLimit
		}
	}
	// Saturation needs an honest fixpoint: no growth AND no live scheduler
	// intervention. Growth includes a primitive :merge that changed a
	// row's value: the row joins the next delta, so rules that read the
	// value still have work. A no-growth iteration with a ban or a binding
	// cap is a fixpoint of the throttled system only — derivable facts
	// remain, and an expiring ban can still produce them — so the run
	// keeps iterating (cheaply: saturated fringes plan no tasks) until the
	// scheduler goes quiet or a limit lands.
	if g.unionCount == r.unionsBefore && g.TotalRows() == r.rowsBefore && g.mergeCount == r.mergesBefore && !schedActive {
		return StopSaturated
	}
	if it.Nodes > r.cfg.NodeLimit {
		return StopNodeLimit
	}
	return ""
}

// recordSched closes the scheduler's loop: it surfaces interventions in
// IterStats.Sched, records full-scan debt for skipped and truncated
// rules, and reports the iteration to the strategy. It returns whether an
// intervention is live — while one exists, a no-growth iteration must
// not be read as saturation, because an expiring ban can still wake the
// run up.
func (r *run) recordSched() (active bool) {
	if r.inst == nil {
		return false
	}
	for i := range r.outcome {
		o := &r.outcome[i]
		switch {
		case o.Skipped:
			active = true
			r.it.Sched = append(r.it.Sched, SchedDecision{Rule: o.Rule, Action: "skip"})
		case o.Limited:
			active = true
			r.it.Sched = append(r.it.Sched, SchedDecision{Rule: o.Rule, Action: "limit", Limit: r.decisions[i].Limit, Dropped: r.dropped(i)})
		}
		r.needFull[i] = o.Skipped || o.Limited
	}
	r.inst.RecordIter(r.iter+1, r.outcome)
	return active
}

// foldRules adds the iteration's per-rule outcomes to RunReport.Rules.
// The scheduler's interventions count only for complete iterations: an
// iteration stopped before its rebuild never reached the scheduler.
func (r *run) foldRules(complete bool) {
	for i := range r.outcome {
		o, rs := &r.outcome[i], &r.report.Rules[i]
		rs.Matched += o.Matched
		rs.Applied += o.Applied
		switch {
		case !complete:
		case o.Skipped:
			rs.Throttled++
		case o.Limited:
			rs.MatchLimited++
			rs.SchedDropped += r.dropped(i)
		}
	}
}

// dropped is the number of matches rule i's scheduler cap discarded this
// iteration: those enumerated beyond it. It is not Matched - Applied,
// which also counts the old matches a full-scan fallback does not apply.
func (r *run) dropped(i int) int64 {
	return r.outcome[i].Matched - int64(r.decisions[i].Limit)
}

// abort stops the run inside an iteration. The partial record is kept:
// PerIter gains the iteration's entry and Rules its matched and applied
// counts so far, while Iterations counts only completed iterations.
func (r *run) abort(stop StopReason, err error) RunReport {
	r.report.Stop, r.report.Err = stop, err
	r.report.PerIter = append(r.report.PerIter, r.it)
	r.foldRules(false)
	return r.end()
}

// end sizes the final graph and closes the run's journal bracket and
// trace span.
func (r *run) end() RunReport {
	g, rep := r.g, &r.report
	rep.Nodes = g.NumNodes()
	rep.Classes = g.NumClasses()
	rep.Elapsed = time.Since(r.start)
	if g.journal != nil {
		g.jEmit(journal.Event{Kind: journal.KRunEnd, Name: string(rep.Stop)})
	}
	if rec := r.cfg.Recorder; rec.Enabled() {
		rec.Complete(obs.LaneEngine, "phase", "run", r.start, rep.Elapsed, map[string]int64{
			"iterations": int64(rep.Iterations),
			"nodes":      int64(rep.Nodes),
			"rows":       rep.RowsScanned,
		})
	}
	return *rep
}
