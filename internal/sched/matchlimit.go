package sched

import "fmt"

// DefaultMatchLimit is MatchLimit's default per-iteration cap.
const DefaultMatchLimit = 1000

// MatchLimit is the flat-cap strategy: every rule's applied matches are
// capped per iteration, with no bans. Unlike RunConfig.MatchLimit, which
// stops the run, a binding cap only truncates the rule's matches for that
// iteration.
type MatchLimit struct {
	// Limit caps each rule's applied matches per iteration
	// (default DefaultMatchLimit).
	Limit int
}

// withDefaults returns the strategy with a zero limit filled in.
func (m MatchLimit) withDefaults() MatchLimit {
	if m.Limit <= 0 {
		m.Limit = DefaultMatchLimit
	}
	return m
}

// New implements Scheduler.
func (m MatchLimit) New() Instance { return matchLimitInstance{cfg: m.withDefaults()} }

// Fingerprint implements Scheduler: the spec with the default filled in,
// e.g. "matchlimit:limit=1000".
func (m MatchLimit) Fingerprint() string {
	return fmt.Sprintf("matchlimit:limit=%d", m.withDefaults().Limit)
}

// matchLimitInstance is stateless: every decision is the same cap.
type matchLimitInstance struct {
	cfg MatchLimit
}

// RuleBudget implements Instance.
func (m matchLimitInstance) RuleBudget(string, int) Decision {
	return Decision{Action: ActionLimit, Limit: m.cfg.Limit}
}

// RecordIter implements Instance (MatchLimit keeps no iteration state).
func (matchLimitInstance) RecordIter(int, []RuleIterStats) {}
