package sched

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validArtifact() *Artifact {
	return &Artifact{
		Schema: SchemaV2,
		Tuner:  &TunerInfo{Workloads: []string{"chain16"}, Objective: "rows_scanned", Budget: 8, Evaluated: 8},
		Rulesets: []RulesetSchedule{
			{RuleSet: "", Scheduler: "backoff:threshold=200,factor=2,ban=3"},
			{RuleSet: "matmul", Scheduler: "backoff:threshold=400,factor=2,ban=5"},
			{RuleSet: "poly", Scheduler: "matchlimit:limit=1000"},
			{RuleSet: "vecnorm", Scheduler: "simple"},
		},
	}
}

func TestArtifactLintAccepts(t *testing.T) {
	if err := validArtifact().Lint(); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
}

// TestArtifactLintViolations mutates a valid artifact one invariant at a
// time; every mutation must be caught with a message naming the problem.
// The file cases go through ReadArtifact, which also rejects what the
// decoder sees: an unknown field, or a v1 file by its schema tag.
func TestArtifactLintViolations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Artifact)
		wantSub string
	}{
		{"wrong schema", func(a *Artifact) { a.Schema = "dialegg-schedule/v0" }, "schema"},
		{"v1 schema", func(a *Artifact) { a.Schema = "dialegg-schedule/v1" }, `"dialegg-schedule/v1"`},
		{"empty", func(a *Artifact) { a.Rulesets = nil }, "no ruleset entries"},
		{"unsorted rulesets", func(a *Artifact) {
			a.Rulesets[1], a.Rulesets[2] = a.Rulesets[2], a.Rulesets[1]
		}, "not sorted"},
		{"duplicate ruleset", func(a *Artifact) { a.Rulesets[2].RuleSet = "matmul" }, "duplicate ruleset"},
		{"unknown scheduler", func(a *Artifact) { a.Rulesets[0].Scheduler = "annealing" }, "unknown scheduler"},
		{"negative threshold", func(a *Artifact) { a.Rulesets[0].Scheduler = "backoff:threshold=-5,factor=2,ban=3" }, "positive integer"},
		{"simple with params", func(a *Artifact) { a.Rulesets[3].Scheduler = "simple:threshold=7" }, "simple takes no options"},
		{"non-canonical spec", func(a *Artifact) { a.Rulesets[1].Scheduler = "backoff:threshold=400" }, "not canonical"},
		{"factor one", func(a *Artifact) { a.Rulesets[0].Scheduler = "backoff:threshold=200,factor=1,ban=3" }, "not canonical"},
		{"empty spec", func(a *Artifact) { a.Rulesets[3].Scheduler = "" }, "not canonical"},
	}
	for _, tc := range cases {
		a := validArtifact()
		tc.mutate(a)
		err := a.Lint()
		if err == nil {
			t.Errorf("%s: lint accepted the violation", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}

	files := []struct{ name, data, wantSub string }{
		{"v1 file", `{"schema": "dialegg-schedule/v1", "rulesets": [{"ruleset": "", "scheduler": "backoff", "threshold": 128, "factor": 2, "ban_length": 5}]}`,
			`schema "dialegg-schedule/v1", want "dialegg-schedule/v2"`},
		{"unknown field", `{"schema": "dialegg-schedule/v2", "rulesets": [{"ruleset": "", "scheduler": "simple", "rules": []}]}`,
			`unknown field "rules"`},
		{"trailing data", `{"schema": "dialegg-schedule/v2", "rulesets": [{"ruleset": "", "scheduler": "simple"}]} {}`,
			"trailing data"},
	}
	dir := t.TempDir()
	for _, tc := range files {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadArtifact(path)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: ReadArtifact error %v, want one mentioning %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestArtifactBuild: every entry of a linted artifact builds a strategy
// that hands out instances and carries the entry's tuned parameters.
func TestArtifactBuild(t *testing.T) {
	a := validArtifact()
	for _, rs := range a.Rulesets {
		s := a.For(rs.RuleSet)
		if s == nil || s.Fingerprint() != rs.Scheduler {
			t.Fatalf("For(%q) = %v, want %s", rs.RuleSet, s, rs.Scheduler)
		}
		if s.New() == nil {
			t.Fatalf("For(%q): nil instance", rs.RuleSet)
		}
	}
	if fp := a.For("matmul").Fingerprint(); !strings.Contains(fp, "threshold=400") || !strings.Contains(fp, "ban=5") {
		t.Fatalf("built fingerprint missing tuned parameters: %s", fp)
	}
}

// TestArtifactForResolution: exact ruleset names win, the default entry
// catches everything else, and a defaultless artifact returns nil for
// unknown sets.
func TestArtifactForResolution(t *testing.T) {
	a := validArtifact()
	if s := a.For("matmul"); s == nil || s.Fingerprint() != a.Rulesets[1].Scheduler {
		t.Fatalf("For(matmul) should pick its exact entry, got %v", s)
	}
	if s := a.For("imgconv"); s == nil || s.Fingerprint() != a.Rulesets[0].Scheduler {
		t.Fatalf("For(imgconv) should fall back to the default entry, got %v", s)
	}
	noDefault := &Artifact{Schema: SchemaV2, Rulesets: []RulesetSchedule{{RuleSet: "poly", Scheduler: "simple"}}}
	if s := noDefault.For("imgconv"); s != nil {
		t.Fatalf("For without default entry should be nil, got %v", s)
	}
}

// TestLoad: the artifact's entry applies unless a spec overrides it, and
// a bad artifact fails even when the spec would win.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := validArtifact().WriteFile(good); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema": "dialegg-schedule/v1", "rulesets": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ path, ruleset, spec, want string }{
		{"", "matmul", "", "<nil>"},
		{"", "matmul", "matchlimit:64", "matchlimit:limit=64"},
		{good, "matmul", "", "backoff:threshold=400,factor=2,ban=5"},
		{good, "imgconv", "", "backoff:threshold=200,factor=2,ban=3"},
		{good, "matmul", "simple", "simple"},
	}
	for _, tc := range cases {
		s, err := Load(tc.path, tc.ruleset, tc.spec)
		if err != nil {
			t.Fatalf("Load(%q, %q, %q): %v", tc.path, tc.ruleset, tc.spec, err)
		}
		got := "<nil>"
		if s != nil {
			got = s.Fingerprint()
		}
		if got != tc.want {
			t.Errorf("Load(%q, %q, %q) = %s, want %s", tc.path, tc.ruleset, tc.spec, got, tc.want)
		}
	}
	if _, err := Load(bad, "matmul", "simple"); err == nil {
		t.Error("Load accepted a bad artifact because a spec overrode it")
	}
	if _, err := Load("", "", "probation=3"); err == nil {
		t.Error("Load accepted a bad spec")
	}
}

// TestArtifactRoundTrip writes, re-reads (which lints), and re-encodes;
// the two encodings must be byte-identical regardless of in-memory build
// order.
func TestArtifactRoundTrip(t *testing.T) {
	a := validArtifact()
	// Scramble build order; Encode canonicalizes.
	a.Rulesets[0], a.Rulesets[2] = a.Rulesets[2], a.Rulesets[0]
	path := filepath.Join(t.TempDir(), "schedule.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encode is not canonical:\n%s\n---\n%s", b1, b2)
	}
}

// TestReadArtifactRejectsUnlintable: ReadArtifact lints on load, so a
// malformed file never reaches a scheduler.
func TestReadArtifactRejectsUnlintable(t *testing.T) {
	a := validArtifact()
	a.Rulesets[0].Scheduler = "annealing"
	path := filepath.Join(t.TempDir(), "bad.json")
	// WriteFile encodes without linting; the reject must happen on read.
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(path); err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("ReadArtifact accepted a bad artifact: %v", err)
	}
}
