package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"dialegg/internal/sched"
)

// TestScheduleAffectsKeyAndCounters checks the -schedule plumbing end to
// end: a server configured with a schedule artifact resolves its default
// entry into each request's run config, the scheduler participates in
// the cache key (tuned and untuned results never collide), and the
// throttle counters surface on /metrics.
func TestScheduleAffectsKeyAndCounters(t *testing.T) {
	art := sched.NewArtifact()
	// An aggressive default backoff entry: the commAssoc explosion trips
	// it within a couple of iterations.
	art.Rulesets = []sched.RulesetSchedule{{
		RuleSet:   "",
		Scheduler: "backoff:threshold=4,factor=2,ban=2",
	}}
	if err := art.Lint(); err != nil {
		t.Fatalf("test artifact fails lint: %v", err)
	}

	_, pc := newTestServer(t, Config{Workers: 1})
	_, tc := newTestServer(t, Config{Workers: 1, Schedule: art})

	req := func() *OptimizeRequest {
		return &OptimizeRequest{
			MLIR:    addChainModule("boom", 8),
			RuleSet: "imgconv",
			Rules:   []string{commAssoc},
			Config:  &RunOptions{IterLimit: 4, NodeLimit: 500_000},
		}
	}
	plainResp, _, err := pc.Optimize(context.Background(), req())
	if err != nil {
		t.Fatalf("unscheduled optimize: %v", err)
	}
	tunedResp, _, err := tc.Optimize(context.Background(), req())
	if err != nil {
		t.Fatalf("scheduled optimize: %v", err)
	}
	if plainResp.Key == tunedResp.Key {
		t.Fatal("scheduled and unscheduled runs share a cache key")
	}
	if plainResp.MLIR != tunedResp.MLIR {
		t.Fatalf("scheduling changed the extracted module:\nplain:\n%s\ntuned:\n%s",
			plainResp.MLIR, tunedResp.MLIR)
	}

	// The tuned server's exposition carries the per-rule throttle vec.
	resp, err := http.Get(tc.BaseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	exposition := string(body)
	if !strings.Contains(exposition, `egg_scheduler_throttled_total{rule="addi-comm"}`) &&
		!strings.Contains(exposition, `egg_scheduler_throttled_total{rule="addi-assoc"}`) {
		t.Fatalf("no egg_scheduler_throttled_total samples for the exploding rules:\n%s", exposition)
	}
}

// TestScheduleNamedEntryWins checks exact ruleset entries shadow the
// default entry during resolution.
func TestScheduleNamedEntryWins(t *testing.T) {
	art := sched.NewArtifact()
	art.Rulesets = []sched.RulesetSchedule{
		{RuleSet: "", Scheduler: "backoff:threshold=1,factor=2,ban=5"},
		{RuleSet: "imgconv", Scheduler: "simple"},
	}
	if err := art.Lint(); err != nil {
		t.Fatalf("test artifact fails lint: %v", err)
	}
	_, c := newTestServer(t, Config{Workers: 1, Schedule: art})

	// imgconv resolves the simple entry, which is key-equivalent to no
	// scheduler at all — so this request's key must match an unscheduled
	// server's key for the same input.
	_, uc := newTestServer(t, Config{Workers: 1})
	req := &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}
	tuned, _, err := c.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("scheduled optimize: %v", err)
	}
	plain, _, err := uc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("unscheduled optimize: %v", err)
	}
	if tuned.Key != plain.Key {
		t.Fatalf("simple entry perturbed the cache key: %s vs %s", tuned.Key, plain.Key)
	}
	if tuned.MLIR != plain.MLIR {
		t.Fatal("simple entry changed the extracted module")
	}
}
