package sched

import "fmt"

// Backoff defaults (egg's BackoffScheduler uses match_limit 1000 and
// ban_length 5; the factor-2 growth matches its << times_banned shifts).
const (
	DefaultBackoffThreshold = 1000
	DefaultBackoffFactor    = 2
	DefaultBackoffBan       = 5
)

// Backoff is the egg-style exponential-backoff strategy: each rule
// matches under a per-iteration threshold; an iteration whose match count
// exceeds the threshold keeps only the threshold-sized prefix, then bans
// the rule for BanLength iterations, after which both the threshold and
// the next ban length have grown by Factor. Explosive rules are throttled
// geometrically while cheap rules never notice the scheduler.
//
// Two deliberate divergences from egg, both forced by the semi-naive
// engine: the triggering iteration applies the threshold prefix instead
// of discarding all matches (the cap is enforced on the merged canonical
// order, so the prefix is deterministic), and the runner re-matches a
// rule against the full database when it resumes from a ban or a
// truncation, because the delta frontiers that passed in between are gone
// (egg's full re-search each iteration gets this for free).
type Backoff struct {
	// Threshold is the starting per-iteration match threshold
	// (default DefaultBackoffThreshold).
	Threshold int
	// Factor multiplies the threshold and ban length on every ban
	// (default DefaultBackoffFactor; minimum 2 keeps the backoff
	// geometric, which is what bounds the number of bans).
	Factor int
	// BanLength is the first ban's length in iterations
	// (default DefaultBackoffBan).
	BanLength int
}

// withDefaults returns the strategy with zero fields filled in.
func (b Backoff) withDefaults() Backoff {
	if b.Threshold <= 0 {
		b.Threshold = DefaultBackoffThreshold
	}
	if b.Factor < 2 {
		b.Factor = DefaultBackoffFactor
	}
	if b.BanLength <= 0 {
		b.BanLength = DefaultBackoffBan
	}
	return b
}

// New implements Scheduler.
func (b Backoff) New() Instance {
	return &backoffInstance{cfg: b.withDefaults(), state: map[string]*backoffState{}}
}

// Fingerprint implements Scheduler: the spec with every default filled
// in, e.g. "backoff:threshold=1000,factor=2,ban=5".
func (b Backoff) Fingerprint() string {
	c := b.withDefaults()
	return fmt.Sprintf("backoff:threshold=%d,factor=%d,ban=%d", c.Threshold, c.Factor, c.BanLength)
}

// backoffState is one rule's mutable backoff state within a run.
type backoffState struct {
	threshold int
	banLen    int
	// bannedUntil is the first iteration the rule may run again.
	bannedUntil int
}

type backoffInstance struct {
	cfg   Backoff
	state map[string]*backoffState
}

func (b *backoffInstance) get(rule string) *backoffState {
	st, ok := b.state[rule]
	if !ok {
		st = &backoffState{threshold: b.cfg.Threshold, banLen: b.cfg.BanLength}
		b.state[rule] = st
	}
	return st
}

// RuleBudget implements Instance: banned rules skip; everything else
// matches under the rule's current threshold.
func (b *backoffInstance) RuleBudget(rule string, iter int) Decision {
	st := b.get(rule)
	if iter < st.bannedUntil {
		return Decision{Action: ActionSkip}
	}
	return Decision{Action: ActionLimit, Limit: st.threshold}
}

// RecordIter implements Instance: a rule whose (exact, pre-cap) match
// count exceeded its threshold is banned starting next iteration, and its
// threshold and next ban grow by Factor. Keyed only on merged counts and
// the iteration number, so the ban schedule is deterministic.
func (b *backoffInstance) RecordIter(iter int, stats []RuleIterStats) {
	for i := range stats {
		rs := &stats[i]
		if rs.Skipped {
			continue
		}
		st := b.get(rs.Rule)
		if rs.Matched > int64(st.threshold) {
			st.bannedUntil = iter + 1 + st.banLen
			st.threshold *= b.cfg.Factor
			st.banLen *= b.cfg.Factor
		}
	}
}
