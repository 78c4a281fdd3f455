package sched

import "testing"

// TestBackoffBanSchedule walks the backoff state machine by hand: a rule
// that exceeds its threshold is banned for BanLength iterations, resumes
// with threshold and ban grown by Factor, and a rule under threshold is
// never throttled.
func TestBackoffBanSchedule(t *testing.T) {
	inst := Backoff{Threshold: 10, Factor: 2, BanLength: 3}.New()

	d := inst.RuleBudget("hot", 1)
	if d.Action != ActionLimit || d.Limit != 10 {
		t.Fatalf("iter 1: got %+v, want limit 10", d)
	}
	// Iteration 1 blows past the threshold: banned for iterations 2-4.
	inst.RecordIter(1, []RuleIterStats{
		{Rule: "hot", Matched: 25, Applied: 10, Limited: true},
		{Rule: "cold", Matched: 3, Applied: 3},
	})
	for iter := 2; iter <= 4; iter++ {
		if d := inst.RuleBudget("hot", iter); d.Action != ActionSkip {
			t.Fatalf("iter %d: hot got %+v, want skip", iter, d)
		}
		if d := inst.RuleBudget("cold", iter); d.Action != ActionLimit || d.Limit != 10 {
			t.Fatalf("iter %d: cold got %+v, want limit 10", iter, d)
		}
	}
	// Resumes at iteration 5 with a doubled threshold.
	if d := inst.RuleBudget("hot", 5); d.Action != ActionLimit || d.Limit != 20 {
		t.Fatalf("iter 5: got %+v, want limit 20", d)
	}
	// Second ban is twice as long (iterations 6-11).
	inst.RecordIter(5, []RuleIterStats{{Rule: "hot", Matched: 21, Applied: 20, Limited: true}})
	for iter := 6; iter <= 11; iter++ {
		if d := inst.RuleBudget("hot", iter); d.Action != ActionSkip {
			t.Fatalf("iter %d: got %+v, want skip (second ban)", iter, d)
		}
	}
	if d := inst.RuleBudget("hot", 12); d.Action != ActionLimit || d.Limit != 40 {
		t.Fatalf("iter 12: got %+v, want limit 40", d)
	}
	// A skipped iteration's stats must not re-trigger the ban counters.
	inst.RecordIter(6, []RuleIterStats{{Rule: "hot", Skipped: true}})
	if d := inst.RuleBudget("hot", 12); d.Action != ActionLimit || d.Limit != 40 {
		t.Fatalf("skipped iteration changed state: %+v", d)
	}
}

// TestMatchLimitCaps: every rule is capped at Limit on every iteration
// whatever it matched before, and a zero Limit takes the default.
func TestMatchLimitCaps(t *testing.T) {
	inst := MatchLimit{Limit: 50}.New()
	inst.RecordIter(1, []RuleIterStats{{Rule: "noise", Matched: 999, Applied: 50, Limited: true}})
	for iter := 1; iter <= 3; iter++ {
		for _, rule := range []string{"noise", "useful"} {
			if d := inst.RuleBudget(rule, iter); d.Action != ActionLimit || d.Limit != 50 {
				t.Fatalf("iter %d %s: got %+v, want limit 50", iter, rule, d)
			}
		}
	}
	if d := (MatchLimit{}).New().RuleBudget("any", 1); d.Action != ActionLimit || d.Limit != DefaultMatchLimit {
		t.Fatalf("default: got %+v, want limit %d", d, DefaultMatchLimit)
	}
}

// TestSimpleIsRun pins the default strategy to the unscheduled behavior.
func TestSimpleIsRun(t *testing.T) {
	inst := Simple{}.New()
	if d := inst.RuleBudget("any", 7); d != (Decision{}) {
		t.Fatalf("simple must always run: got %+v", d)
	}
	if got := (Simple{}).Fingerprint(); got != "simple" {
		t.Fatalf("fingerprint: %q", got)
	}
}

// TestParse covers the flag-spec grammar, and that every fingerprint is
// itself a spec that parses back to the same fingerprint.
func TestParse(t *testing.T) {
	good := map[string]string{
		"simple":                     "simple",
		"backoff":                    "backoff:threshold=1000,factor=2,ban=5",
		"backoff:threshold=500":      "backoff:threshold=500,factor=2,ban=5",
		"backoff:threshold=64,ban=2": "backoff:threshold=64,factor=2,ban=2",
		"backoff:factor=4":           "backoff:threshold=1000,factor=4,ban=5",
		"matchlimit":                 "matchlimit:limit=1000",
		"matchlimit:200":             "matchlimit:limit=200",
		"match-limit:limit=8":        "matchlimit:limit=8",
	}
	for spec, want := range good {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := s.Fingerprint(); got != want {
			t.Errorf("Parse(%q).Fingerprint() = %q, want %q", spec, got, want)
		}
		back, err := Parse(want)
		if err != nil {
			t.Fatalf("Parse(%q) (a fingerprint): %v", want, err)
		}
		if got := back.Fingerprint(); got != want {
			t.Errorf("Parse(%q).Fingerprint() = %q, want it unchanged", want, got)
		}
	}
	bad := []string{
		"frobnicate", "simple:x=1", "backoff:threshold=-1", "backoff:threshold",
		"backoff:bogus=2", "matchlimit:x", "matchlimit:limit=0",
		"matchlimit:limit=8,probation=9",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

// TestNewInstanceIsolated checks that New mints independent per-run
// state: a ban accumulated in one run must not leak into the next.
func TestNewInstanceIsolated(t *testing.T) {
	b := Backoff{Threshold: 10}
	first := b.New()
	first.RecordIter(1, []RuleIterStats{{Rule: "hot", Matched: 99}})
	if d := first.RuleBudget("hot", 2); d.Action != ActionSkip {
		t.Fatalf("first run should have banned: %+v", d)
	}
	second := b.New()
	if d := second.RuleBudget("hot", 2); d.Action != ActionLimit || d.Limit != 10 {
		t.Fatalf("state leaked across runs: %+v", d)
	}
}
