// Package sched is the engine's adaptive rule-scheduling subsystem: the
// control half of the measure→control loop the per-rule metrics feed. A
// Scheduler decides, per iteration and per rule, whether the rule matches
// this iteration (run), sits it out (skip), or matches under a cap
// (limit N) — the mechanism behind egg's BackoffScheduler, which is what
// keeps one explosive rule (commutativity, associativity) from dominating
// saturation time and e-graph growth.
//
// Determinism is the design constraint everything here bends around: a
// scheduler decision may depend only on the iteration number, the rule's
// identity, and the merged per-iteration statistics the runner reports
// through RecordIter — quantities that are byte-identical for every
// worker count, shard plan, and match mode. Wall time, goroutine order,
// and task-level counts never reach a scheduler, so a scheduled run is as
// reproducible as an unscheduled one.
//
// The package is dependency-free (stdlib only) so the e-graph engine can
// import it without cycles; the engine-side hook lives in
// egraph.RunConfig.Scheduler.
package sched

// Action is what a scheduler tells the runner to do with one rule for one
// iteration.
type Action int

const (
	// ActionRun matches the rule normally (the default; the zero
	// Decision).
	ActionRun Action = iota
	// ActionSkip excludes the rule from the iteration's match plan
	// entirely — no tasks are planned for it, so a skipped rule costs
	// nothing.
	ActionSkip
	// ActionLimit matches the rule but caps how many of its matches are
	// applied this iteration (Decision.Limit). The cap is enforced on the
	// merged, deterministically ordered match list, so the kept prefix is
	// the same for every worker count.
	ActionLimit
)

// String names the action for reports and artifacts.
func (a Action) String() string {
	switch a {
	case ActionSkip:
		return "skip"
	case ActionLimit:
		return "limit"
	default:
		return "run"
	}
}

// Decision is one rule's budget for one iteration.
type Decision struct {
	Action Action
	// Limit is the per-iteration match cap when Action == ActionLimit
	// (<= 0 means unlimited, equivalent to ActionRun).
	Limit int
}

// RuleIterStats is one rule's merged outcome of one iteration, delivered
// to RecordIter after the iteration's apply phase.
type RuleIterStats struct {
	Rule string
	// Matched is the pre-truncation match count (exact: scheduler caps
	// are enforced at merge time, after full enumeration, so this is the
	// number of matches the rule would have enumerated unscheduled). A
	// semi-naive full-scan fallback enumerates old matches too, and they
	// count here.
	Matched int64
	// Applied is the number of matches applied: those enumerated before
	// the cap, less the old matches a semi-naive full-scan fallback skips.
	// Applied < Matched therefore does not by itself mean a cap bound.
	Applied int64
	// Skipped reports whether the scheduler skipped the rule.
	Skipped bool
	// Limited reports whether a scheduler cap actually truncated the
	// rule's matches: Matched exceeded the cap, and the Matched - cap
	// matches enumerated beyond it were dropped.
	Limited bool
}

// Instance is the per-run mutable state of a scheduling strategy: the
// runner consults RuleBudget in its serial section before each match
// phase and reports the iteration's merged outcome through RecordIter.
// Both are called from a single goroutine; implementations need no
// locking.
type Instance interface {
	// RuleBudget returns the rule's budget for iteration iter (1-based).
	RuleBudget(rule string, iter int) Decision
	// RecordIter delivers the iteration's merged per-rule outcomes in
	// rule-declaration order.
	RecordIter(iter int, stats []RuleIterStats)
}

// Scheduler is a reusable, immutable scheduling strategy. New mints the
// mutable per-run state, so one Scheduler value can bound many runs (the
// optimizer saturates once per function) without state leaking between
// them. Fingerprint is the strategy's canonical identity and its one text
// form: a spec that Parse reads back to an equal strategy, which schedule
// artifacts store and result caches fold into their content address (a
// scheduler changes results, so two runs share a cache entry only when
// their schedules agree).
type Scheduler interface {
	New() Instance
	Fingerprint() string
}

// Simple is the default strategy: every rule runs unthrottled every
// iteration — bit-identical to running with no scheduler at all.
type Simple struct{}

// New implements Scheduler.
func (Simple) New() Instance { return simpleInstance{} }

// Fingerprint implements Scheduler.
func (Simple) Fingerprint() string { return "simple" }

type simpleInstance struct{}

func (simpleInstance) RuleBudget(string, int) Decision { return Decision{} }
func (simpleInstance) RecordIter(int, []RuleIterStats) {}
