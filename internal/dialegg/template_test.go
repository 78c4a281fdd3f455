package dialegg_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dialegg/internal/bench"
	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/difftest"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/obs/journal"
	"dialegg/internal/rules"
)

// compileCase is one module optimized under one rule set.
type compileCase struct {
	name  string
	src   string
	rules []string
	cfg   egraph.RunConfig
}

// compileOnce parses, optimizes and prints c, returning the canonical
// output or the error text.
func compileOnce(c compileCase, jw *journal.Writer) string {
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(c.src, reg)
	if err != nil {
		return "parse error: " + err.Error()
	}
	opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: c.rules, RunConfig: c.cfg, Journal: jw})
	if _, err := opt.OptimizeModule(m); err != nil {
		return "optimize error: " + err.Error()
	}
	return mlir.PrintModuleCanonical(m, reg)
}

// templateCases is every bundled rule set applied to every §8.2 program,
// plus the difftest corpus under its entries' bundles.
func templateCases(t *testing.T) []compileCase {
	ruleSets := []struct {
		name  string
		rules []string
	}{
		{"imgconv", rules.ImgConv()},
		{"vecnorm", rules.VecNorm()},
		{"poly", rules.Poly()},
		{"matmul", rules.MatmulChain()},
	}
	var cases []compileCase
	for _, b := range bench.DefaultBenchmarks(bench.ScaleCI) {
		for _, rs := range ruleSets {
			cases = append(cases, compileCase{b.Name + "/" + rs.name, b.Source, rs.rules, b.RunConfig})
		}
	}
	entries, err := difftest.LoadCorpus("../difftest/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := difftest.BundleFor(e.Bundle)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, compileCase{e.Path, e.Source, b.Rules, egraph.RunConfig{}})
	}
	return cases
}

// TestWarmTemplateEqualsCold: a function compiled from a template other
// compiles already cloned prints exactly what it prints from a freshly
// built one, so nothing one clone does leaks into the template.
func TestWarmTemplateEqualsCold(t *testing.T) {
	cases := templateCases(t)
	cold := make([]string, len(cases))
	for i, c := range cases {
		dialegg.ResetTemplates()
		cold[i] = compileOnce(c, nil)
	}
	// Warm the cache with every case, then compile each again in reverse
	// order, after every other program has run on its template.
	for _, c := range cases {
		compileOnce(c, nil)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		if got := compileOnce(cases[i], nil); got != cold[i] {
			t.Errorf("%s: warm output differs from cold\n--- cold\n%s\n--- warm\n%s", cases[i].name, cold[i], got)
		}
	}
}

// TestConcurrentTemplateClones: goroutines racing to build and clone the
// same templates (run under -race) all print the serial output.
func TestConcurrentTemplateClones(t *testing.T) {
	cases := templateCases(t)[:8]
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = compileOnce(c, nil)
	}
	dialegg.ResetTemplates()
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(cases))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cases {
				i := (k + w) % len(cases)
				if got := compileOnce(cases[i], nil); got != want[i] {
					errs <- fmt.Sprintf("worker %d, %s: output differs from the serial compile", w, cases[i].name)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWarmTemplateJournalReplay: the journal of a function compiled from a
// warm template (Vec Norm, whose rules hold a let row) replays with every
// snapshot verified and is byte-equal to the journal of a cold compile.
func TestWarmTemplateJournalReplay(t *testing.T) {
	c := compileCase{"vecnorm", bench.VecNormSource(64), rules.VecNorm(), egraph.RunConfig{}}
	journalOf := func() []byte {
		var buf bytes.Buffer
		jw := journal.NewWriter(&buf)
		jw.SnapshotEvery = 1
		compileOnce(c, jw)
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dialegg.ResetTemplates()
	cold := journalOf()
	compileOnce(c, nil)
	warm := journalOf()
	if !bytes.Equal(warm, cold) {
		t.Fatalf("warm journal (%d bytes) differs from cold journal (%d bytes)", len(warm), len(cold))
	}
	events, err := journal.Read(bytes.NewReader(warm))
	if err != nil {
		t.Fatal(err)
	}
	// (let fmfast ... (fast)) is the only insert of (fast): the function's
	// own program finds the row already there.
	backfilled := false
	for _, e := range events {
		backfilled = backfilled || e.Kind == journal.KInsert && e.Fn == "fast"
	}
	if !backfilled {
		t.Fatal("the journal does not back-fill the rows of the template's let")
	}
	if err := journal.Lint(events); err != nil {
		t.Fatalf("journal fails lint: %v", err)
	}
	_, res, err := egraph.Replay(events, egraph.ReplayOptions{ToIter: -1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotsVerified == 0 {
		t.Fatal("replay verified no snapshots")
	}
}
