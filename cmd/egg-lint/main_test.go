package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dialegg/internal/obs"
	"dialegg/internal/obs/profile"
	"dialegg/internal/sched"
)

// TestLintPicksCheckerByShape: each artifact kind reaches its own checker,
// and a malformed file of each kind is rejected by it.
func TestLintPicksCheckerByShape(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Complete(obs.LaneEngine, "phase", "run", time.Now(), time.Millisecond, nil)
	var trace bytes.Buffer
	if err := rec.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	prof, err := profile.New().Encode()
	if err != nil {
		t.Fatal(err)
	}
	art := sched.NewArtifact()
	art.Rulesets = []sched.RulesetSchedule{{Scheduler: "simple"}}
	schedule, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, data, want string // want: summary prefix, or "!" + error substring
	}{
		{"trace", trace.String(), "trace OK"},
		{"empty trace", `{"traceEvents": []}`, "!no span events"},
		{"stats", `{"run": {"iterations": 1, "per_iter": [{"rows_scanned": 4}], "rows_scanned": 4, "rules": [{"name": "r", "rows_scanned": 4}]}}`, "stats OK"},
		{"stats no rules", `{"run": {"iterations": 1, "per_iter": [{"rows_scanned": 4}], "rows_scanned": 4}}`, "!per-rule rows 0 != total rows scanned 4"},
		{"stats rows", `{"iterations": 1, "per_iter": [{"rows_scanned": 3}], "rows_scanned": 4}`, "!per-iteration rows 3"},
		{"stats applied", `{"iterations": 1, "per_iter": [{"rows_scanned": 4}], "rows_scanned": 4, "rules": [{"name": "r", "matched": 1, "applied": 2, "rows_scanned": 4}]}`, "!applied 2 > matched 1"},
		{"stats dropped", `{"iterations": 1, "per_iter": [{"rows_scanned": 4}], "rows_scanned": 4, "rules": [{"name": "r", "rows_scanned": 4, "sched_dropped": 3}]}`, "!sched_dropped 3 without"},
		{"stats premises", `{"iterations": 1, "per_iter": [{"rows_scanned": 1}], "rows_scanned": 1, "rules": [{"name": "r", "rows_scanned": 1, "premises": [{"kind": "table", "execs": 1, "visits": 1, "matches": 2, "full_scans": 1}]}]}`, "!matches 2 > visits 1"},
		{"stats blame", `{"run": {"iterations": 1, "per_iter": [{}]}, "blame": [{"rule": "r", "rows": 3, "extracted": 1, "rejected": 1}]}`, "!extracted 1 + rejected 1 + waste 0 != rows 3"},
		{"journal", "{\"k\":\"graph\",\"n\":\"f\"}\n{\"k\":\"sort\",\"n\":\"Expr\"}\n", "journal OK, 2 events"},
		{"journal kind", "{\"k\":\"graph\",\"n\":\"f\"}\n{\"k\":\"nope\"}\n", "!nope"},
		{"metrics", "# HELP x_total x\n# TYPE x_total counter\nx_total 1\n", "metrics OK, 1 samples"},
		{"metrics required", "# HELP y_total y\n# TYPE y_total counter\ny_total 1\n", "!required metric x_total"},
		{"profile", string(prof), "profile OK"},
		{"schedule", string(schedule), "schedule OK"},
		{"unknown schema", `{"schema": "nope/v9"}`, "!unknown artifact schema"},
		{"empty", " \n", "!empty file"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_"))
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		msg, err := lint(path, "x_total")
		if want, ok := strings.CutPrefix(tc.want, "!"); ok {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, want)
			}
			continue
		}
		if err != nil || !strings.HasPrefix(msg, tc.want) {
			t.Errorf("%s: got %q, %v; want %q", tc.name, msg, err, tc.want)
		}
	}
}
