package dialegg_test

// End-to-end tests for the saturation profiler's CLI surface: the
// -profile flags on egg-opt and egglog, the egg-prof
// merge/blame/selectivity/top subcommands, and egg-lint on the
// artifacts. The blame report on
// a paper workload is pinned with a golden file — blame depends only on
// the final graph and the extraction decision, both of which are
// deterministic, so the table must not drift.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dialegg/internal/obs/profile"
)

var updateProfGolden = flag.Bool("update", false, "rewrite golden files")

// profileWorkload runs egg-opt over the shared CLI program with a
// saturation profile and returns the artifact path.
func profileWorkload(t *testing.T, bin, dir string, workers string) string {
	t.Helper()
	mlirPath := filepath.Join(dir, "prog.mlir")
	if err := os.WriteFile(mlirPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "profile"+workers+".json")
	out, err := exec.Command(bin, "-rules", "imgconv", "-workers", workers,
		"-profile", prof, mlirPath).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-opt -profile: %v\n%s", err, out)
	}
	return prof
}

// TestEggProfCLI drives egg-opt -profile and every egg-prof subcommand.
func TestEggProfCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	optBin := buildTool(t, "egg-opt")
	profBin := buildTool(t, "egg-prof")
	lintBin := buildTool(t, "egg-lint")
	dir := t.TempDir()
	prof := profileWorkload(t, optBin, dir, "2")

	// lint: the live artifact satisfies the schema contract.
	out, err := exec.Command(lintBin, prof).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-lint: %v\n%s", err, out)
	}

	// blame: golden-pinned per-rule cost/benefit table.
	out, err = exec.Command(profBin, "blame", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-prof blame: %v\n%s", err, out)
	}
	goldenPath := filepath.Join("testdata", "egg_prof_blame.golden")
	if *updateProfGolden {
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, golden) {
		t.Errorf("egg-prof blame drifted from golden (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", out, golden)
	}

	// selectivity: the rules' premise counters are present and rendered.
	out, err = exec.Command(profBin, "selectivity", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-prof selectivity: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fanout") || !strings.Contains(string(out), "rows scanned") {
		t.Errorf("selectivity report malformed:\n%s", out)
	}

	// top: cost table ranked by rows scanned.
	out, err = exec.Command(profBin, "top", "-n", "3", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-prof top: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "rows") || len(strings.Split(strings.TrimSpace(string(out)), "\n")) > 4 {
		t.Errorf("top -n 3 output malformed:\n%s", out)
	}

	lp, err := profile.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}

	// merge: folding an artifact into itself doubles the counters.
	merged := filepath.Join(dir, "merged.json")
	out, err = exec.Command(profBin, "merge", "-o", merged, prof, prof).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-prof merge: %v\n%s", err, out)
	}
	mp, err := profile.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Runs != 2*lp.Runs {
		t.Errorf("merged runs = %d, want %d", mp.Runs, 2*lp.Runs)
	}
	if len(mp.Rules) != len(lp.Rules) {
		t.Fatalf("merged profile has %d rules, want %d", len(mp.Rules), len(lp.Rules))
	}
	for i, rs := range mp.Rules {
		if rs.Applied != 2*lp.Rules[i].Applied || rs.RowsCreated != 2*lp.Rules[i].RowsCreated {
			t.Errorf("merged rule %s: applied/rows_created %d/%d, want twice %d/%d",
				rs.Name, rs.Applied, rs.RowsCreated, lp.Rules[i].Applied, lp.Rules[i].RowsCreated)
		}
		for j, ps := range rs.Premises {
			if ps.Visits != 2*lp.Rules[i].Premises[j].Visits {
				t.Errorf("merged rule %s premise %d: visits %d, want twice %d", rs.Name, j, ps.Visits, lp.Rules[i].Premises[j].Visits)
			}
		}
	}

	// lint rejects a corrupted artifact.
	bad := filepath.Join(dir, "bad.json")
	raw, _ := os.ReadFile(prof)
	if err := os.WriteFile(bad, bytes.Replace(raw, []byte(profile.SchemaV2), []byte("nope/v9"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(lintBin, bad).CombinedOutput(); err == nil {
		t.Errorf("lint accepted corrupted artifact:\n%s", out)
	}
}

// TestEggOptProfileWorkerIndependent: the canonical artifact from the
// binary is byte-identical across worker counts — the cross-process form
// of the engine's determinism guarantee.
func TestEggOptProfileWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "egg-opt")
	dir := t.TempDir()
	p1 := profileWorkload(t, bin, dir, "1")
	p4 := profileWorkload(t, bin, dir, "4")
	a, err := profile.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := profile.ReadFile(p4)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.Canonical().Encode()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Canonical().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Errorf("canonical artifact differs between workers=1 and workers=4:\n%s\nvs:\n%s", ab, bb)
	}
}

// TestEgglogProfileCLI: egglog -profile aggregates every (run ...) and
// joins blame over the (extract ...) roots.
func TestEgglogProfileCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "egglog")
	dir := t.TempDir()
	eggPath := filepath.Join(dir, "p.egg")
	prog := `
(sort Expr)
(function Num (i64) Expr :cost 1)
(function Add (Expr Expr) Expr :cost 1)
(function Mul (Expr Expr) Expr :cost 4)
(function Junk (Expr) Expr :cost 9)
(rewrite (Mul ?x ?y) (Add ?x ?y))
(rule ((= ?r (Mul ?x ?y))) ((Junk ?r)))
(let e (Mul (Num 1) (Num 2)))
(run 5)
(extract e)
`
	if err := os.WriteFile(eggPath, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "profile.json")
	out, err := exec.Command(bin, "-profile", prof, eggPath).CombinedOutput()
	if err != nil {
		t.Fatalf("egglog -profile: %v\n%s", err, out)
	}
	p, err := profile.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if p.Runs == 0 || p.Iterations == 0 || len(p.Rules) == 0 {
		t.Fatalf("profile missing run data: %+v", p)
	}
	if len(p.Blame) == 0 {
		t.Fatal("profile has no blame section despite (extract ...)")
	}
	var junkWaste int64
	for _, br := range p.Blame {
		if strings.Contains(br.Rule, "Junk") || br.Waste > 0 {
			junkWaste += br.Waste
		}
	}
	if junkWaste == 0 {
		t.Errorf("wasteful Junk rule produced no waste rows: %+v", p.Blame)
	}
	for _, rs := range p.Rules {
		if len(rs.Premises) == 0 {
			t.Errorf("rule %s carries no premise counters despite -profile", rs.Name)
		}
	}
}
