package dialegg_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"dialegg/internal/dialegg"
	"dialegg/internal/obs"
	"dialegg/internal/serve"
)

// buildTool compiles one of the cmd/ binaries into a temp dir.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

const cliProgram = `
func.func @scale(%x: i64) -> i64 {
  %c256 = arith.constant 256 : i64
  %r = arith.divsi %x, %c256 : i64
  func.return %r : i64
}
`

// TestEggOptCLI drives the egg-opt binary end to end: bundled rules,
// custom rule files, --emit-egg, and the canonicalize flag.
func TestEggOptCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "egg-opt")
	dir := t.TempDir()
	mlirPath := filepath.Join(dir, "prog.mlir")
	if err := os.WriteFile(mlirPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "-rules", "imgconv", mlirPath).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-opt: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "arith.shrsi") || strings.Contains(string(out), "arith.divsi") {
		t.Errorf("division not rewritten:\n%s", out)
	}

	// --emit-egg shows the translation.
	out, err = exec.Command(bin, "-rules", "imgconv", "-emit-egg", mlirPath).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-opt -emit-egg: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "(arith_divsi") || !strings.Contains(string(out), "(Value 0 (I64))") {
		t.Errorf("emit-egg output unexpected:\n%s", out)
	}
	// -emit-egg runs nothing, so a journal beside it is a usage error,
	// reported before the journal file is created.
	jPath := filepath.Join(dir, "emit.jsonl")
	out, err = exec.Command(bin, "-rules", "imgconv", "-emit-egg", "-journal", jPath, mlirPath).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "-emit-egg") {
		t.Errorf("egg-opt -emit-egg -journal: %v, want exit status 2 naming -emit-egg\n%s", err, out)
	}
	if _, err := os.Stat(jPath); !os.IsNotExist(err) {
		t.Errorf("egg-opt -emit-egg -journal created %s (stat: %v)", jPath, err)
	}

	// A user-supplied rule file via -egg.
	eggPath := filepath.Join(dir, "my.egg")
	ruleText := `
(function arith_constant (AttrPair Type) Op :cost 10)
(function arith_divsi (Op Op Type) Op :cost 180)
(function arith_shrsi (Op Op Type) Op :cost 10)
(rule ((= ?lhs (arith_divsi ?x (arith_constant (NamedAttr "value" (IntegerAttr ?n ?t)) ?t) ?t))
       (= ?k (log2 ?n)) (= ?n (<< 1 ?k)))
      ((union ?lhs (arith_shrsi ?x (arith_constant (NamedAttr "value" (IntegerAttr ?k ?t)) ?t) ?t))))
`
	if err := os.WriteFile(eggPath, []byte(ruleText), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, "-egg", eggPath, "-canonicalize", mlirPath).CombinedOutput()
	if err != nil {
		t.Fatalf("egg-opt -egg: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "arith.shrsi") {
		t.Errorf("custom rule file did not apply:\n%s", out)
	}

	// Bad input reports a non-zero exit.
	if err := exec.Command(bin, "-rules", "nope", mlirPath).Run(); err == nil {
		t.Error("unknown rule set accepted")
	}
}

// TestEggOptObservabilityCLI drives egg-opt's observability surface:
// --stats to stderr with stdout staying pure MLIR, --stats-json whose
// per-rule totals equal the --stats table, a validating --trace file with
// pipeline/engine/worker lanes, and pprof output.
func TestEggOptObservabilityCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "egg-opt")
	dir := t.TempDir()
	mlirPath := filepath.Join(dir, "prog.mlir")
	if err := os.WriteFile(mlirPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.json")
	statsPath := filepath.Join(dir, "stats.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")

	cmd := exec.Command(bin, "-rules", "imgconv", "-workers", "2", "-stats",
		"-stats-json", statsPath, "-trace", tracePath,
		"-cpuprofile", cpuPath, "-memprofile", memPath, mlirPath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("egg-opt: %v\nstderr:\n%s", err, stderr.String())
	}

	// stdout must be pipeable MLIR only; all stats go to stderr.
	if !strings.Contains(stdout.String(), "arith.shrsi") || strings.Contains(stdout.String(), "iter 1") {
		t.Errorf("stdout not pure MLIR:\n%s", stdout.String())
	}
	errText := stderr.String()
	if !strings.Contains(errText, "saturation:") || !strings.Contains(errText, "matched") {
		t.Errorf("stderr missing stats/per-rule table:\n%s", errText)
	}

	// The trace must validate and carry the three lane families.
	spans, err := obs.ValidateTraceFile(tracePath)
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if spans == 0 {
		t.Fatal("trace has no spans")
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, lane := range []string{`"pipeline"`, `"engine"`, `"match worker 0"`} {
		if !strings.Contains(string(traceData), lane) {
			t.Errorf("trace missing lane %s", lane)
		}
	}

	// The JSON per-rule totals must equal the --stats table's rows.
	statsData, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep dialegg.Report
	if err := json.Unmarshal(statsData, &rep); err != nil {
		t.Fatalf("stats JSON does not parse: %v", err)
	}
	if len(rep.Run.Rules) == 0 {
		t.Fatal("stats JSON has no per-rule metrics")
	}
	for _, r := range rep.Run.Rules {
		prefix := fmt.Sprintf("%-32s %9d %9d %7d %10d", r.Name, r.Matched, r.Applied, r.Noops, r.RowsScanned)
		if !strings.Contains(errText, prefix) {
			t.Errorf("--stats table row disagrees with JSON for rule %s:\nwant row prefix %q in:\n%s",
				r.Name, prefix, errText)
		}
	}
	if rep.Run.Iterations == 0 || len(rep.Run.PerIter) != rep.Run.Iterations {
		t.Errorf("stats JSON iteration records inconsistent: %d iters, %d records",
			rep.Run.Iterations, len(rep.Run.PerIter))
	}

	// pprof files exist and are non-empty.
	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile missing: %v", err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestMLIRRunCLI drives the interpreter binary.
func TestMLIRRunCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "mlir-run")
	dir := t.TempDir()
	mlirPath := filepath.Join(dir, "prog.mlir")
	if err := os.WriteFile(mlirPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-fn", "scale", "-int-args", "1024", "-counts", mlirPath).CombinedOutput()
	if err != nil {
		t.Fatalf("mlir-run: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "result[0] = 4") {
		t.Errorf("1024/256 should be 4:\n%s", s)
	}
	if !strings.Contains(s, "cycles = ") || !strings.Contains(s, "arith.divsi") {
		t.Errorf("missing cycle/count report:\n%s", s)
	}

	// -check runs the differential oracle on the module: the imgconv
	// bundle's shift rewrite must agree with the original on every
	// generated input vector.
	out, err = exec.Command(bin, "-check", "-rules", "imgconv", mlirPath).CombinedOutput()
	if err != nil {
		t.Fatalf("mlir-run -check: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "check ok: bundle imgconv") {
		t.Errorf("-check did not report ok:\n%s", out)
	}

	// With no file argument, -check reads the module from stdin.
	cmd := exec.Command(bin, "-check", "-rules", "imgconv")
	cmd.Stdin = strings.NewReader(cliProgram)
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mlir-run -check via stdin: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "check ok") {
		t.Errorf("-check via stdin did not report ok:\n%s", out)
	}

	// The deliberately unsound bundle (the paper's literal div->shr rule,
	// wrong for negative dividends) must be caught with a non-zero exit
	// and the disagreeing optimized module in the report.
	unsound := `
func.func @fuzz(%x: i64) -> i64 {
  %c2 = arith.constant 2 : i64
  %r = arith.divsi %x, %c2 : i64
  func.return %r : i64
}
`
	unsoundPath := filepath.Join(dir, "unsound.mlir")
	if err := os.WriteFile(unsoundPath, []byte(unsound), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, "-check", "-rules", "imgconv-unsound", unsoundPath).CombinedOutput()
	if err == nil {
		t.Errorf("-check accepted the unsound bundle:\n%s", out)
	}
	if !strings.Contains(string(out), "CHECK FAILED") || !strings.Contains(string(out), "--- optimized") {
		t.Errorf("-check failure report incomplete:\n%s", out)
	}
}

// TestEggFuzzCLI drives the differential fuzzing gate binary: corpus
// replay (the CI smoke gate), determinism in -seed, and the
// fail-minimize-pin loop on the deliberately unsound rule bundle.
func TestEggFuzzCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "egg-fuzz")

	// The checked-in corpus must replay clean: every entry's verdict
	// matches its "// expect:" header.
	out, err := exec.Command(bin, "-replay", "internal/difftest/testdata/corpus").CombinedOutput()
	if err != nil {
		t.Fatalf("egg-fuzz -replay: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "entries replayed, all verdicts match") {
		t.Errorf("replay summary missing:\n%s", out)
	}

	// Same seed, same invocation: byte-identical output.
	run := func() string {
		out, err := exec.Command(bin, "-rules", "imgconv", "-n", "3", "-seed", "5", "-v").CombinedOutput()
		if err != nil {
			t.Fatalf("egg-fuzz: %v\n%s", err, out)
		}
		return string(out)
	}
	first := run()
	if second := run(); first != second {
		t.Errorf("egg-fuzz is not deterministic in -seed:\n--- first\n%s--- second\n%s", first, second)
	}
	if !strings.Contains(first, "checked 3 modules") || !strings.Contains(first, "0 failure(s)") {
		t.Errorf("fuzz summary unexpected:\n%s", first)
	}

	// The unsound bundle must fail, shrink to a tiny repro, and write a
	// corpus entry that itself replays clean (verdict matches expect: fail).
	corpusDir := filepath.Join(t.TempDir(), "repros")
	out, err = exec.Command(bin, "-rules", "imgconv-unsound", "-n", "1", "-seed", "32",
		"-budget", "10", "-minimize", "-corpus", corpusDir, "-max-failures", "1").CombinedOutput()
	if err == nil {
		t.Fatalf("unsound bundle not caught:\n%s", out)
	}
	s := string(out)
	if !strings.Contains(s, "FAIL bundle=imgconv-unsound seed=32") || !strings.Contains(s, "mismatch") {
		t.Errorf("failure report missing:\n%s", s)
	}
	if !strings.Contains(s, "minimized to 2 ops") {
		t.Errorf("shrinker did not reach the 2-op repro:\n%s", s)
	}
	entry, err := os.ReadFile(filepath.Join(corpusDir, "repro_imgconv-unsound_seed32.mlir"))
	if err != nil {
		t.Fatalf("corpus entry not written: %v", err)
	}
	for _, want := range []string{"// bundle: imgconv-unsound", "// expect: fail", "arith.divsi"} {
		if !strings.Contains(string(entry), want) {
			t.Errorf("corpus entry missing %q:\n%s", want, entry)
		}
	}
	out, err = exec.Command(bin, "-replay", corpusDir).CombinedOutput()
	if err != nil {
		t.Fatalf("replaying the written repro: %v\n%s", err, out)
	}

	// Unknown bundles report a non-zero exit.
	if err := exec.Command(bin, "-rules", "nope", "-n", "1").Run(); err == nil {
		t.Error("unknown rule bundle accepted")
	}
}

// TestEgglogCLI drives the standalone egglog interpreter.
func TestEgglogCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "egglog")
	dir := t.TempDir()
	eggPath := filepath.Join(dir, "fig1.egg")
	prog := `
(sort Expr)
(function Num (i64) Expr :cost 1)
(function Var (String) Expr :cost 1)
(function Mul (Expr Expr) Expr :cost 2)
(function Div (Expr Expr) Expr :cost 2)
(function Shl (Expr Expr) Expr :cost 1)
(rewrite (Div ?x ?x) (Num 1))
(rewrite (Mul ?x (Num 1)) ?x)
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(rewrite (Div (Mul ?x ?y) ?z) (Mul ?x (Div ?y ?z)))
(let expr (Div (Mul (Var "a") (Num 2)) (Num 2)))
(run 20)
(check (= expr (Var "a")))
(extract expr)
`
	if err := os.WriteFile(eggPath, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	dotPath := filepath.Join(dir, "g.dot")
	out, err := exec.Command(bin, "-dot", dotPath, eggPath).CombinedOutput()
	if err != nil {
		t.Fatalf("egglog: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, `(Var "a") ; cost 1`) {
		t.Errorf("extraction output wrong:\n%s", s)
	}
	if !strings.Contains(s, "check passed") {
		t.Errorf("check output missing:\n%s", s)
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph egraph") || !strings.Contains(string(dot), "cluster_") {
		t.Errorf("dot output malformed:\n%s", dot)
	}
}

// TestEggServeCLI drives the egg-serve daemon: the self-contained -smoke
// exercise, then a real daemon lifecycle — start on an ephemeral port,
// optimize over HTTP using the server's default rule set, SIGTERM for a
// graceful drain, and the final -stats-json snapshot.
func TestEggServeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "egg-serve")

	out, err := exec.Command(bin, "-smoke").CombinedOutput()
	if err != nil {
		t.Fatalf("egg-serve -smoke: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "serve-smoke: OK") {
		t.Fatalf("smoke output unexpected:\n%s", out)
	}

	statsPath := filepath.Join(t.TempDir(), "serve_stats.json")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-rules", "imgconv",
		"-workers", "2", "-stats-json", statsPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting egg-serve: %v", err)
	}
	defer cmd.Process.Kill()

	// The daemon announces its bound address on stderr.
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
			addr = sc.Text()[i+len("listening on "):]
			break
		}
	}
	if addr == "" {
		t.Fatal("egg-serve never announced its address")
	}
	go io.Copy(io.Discard, stderr)

	// No rule_set in the request: the daemon's -rules default applies.
	c := serve.NewClient("http://" + addr)
	resp, source, err := c.Optimize(context.Background(), &serve.OptimizeRequest{MLIR: cliProgram})
	if err != nil {
		t.Fatalf("optimize via daemon: %v", err)
	}
	if !strings.Contains(resp.MLIR, "arith.shrsi") {
		t.Errorf("daemon did not apply default rules:\n%s", resp.MLIR)
	}
	if source != "miss" {
		t.Errorf("first request source = %q, want miss", source)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("egg-serve exit: %v", err)
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("stats snapshot missing: %v", err)
	}
	var st serve.ServerStats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("stats snapshot does not parse: %v", err)
	}
	if st.Requests != 1 || st.Runs != 1 || !st.Draining {
		t.Errorf("final stats = requests %d, runs %d, draining %v; want 1, 1, true",
			st.Requests, st.Runs, st.Draining)
	}
}

// TestBenchtabCLI smoke-tests the table regenerator on Table 1 only (the
// cheap path).
func TestBenchtabCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "benchtab")
	out, err := exec.Command(bin, "-table1").CombinedOutput()
	if err != nil {
		t.Fatalf("benchtab: %v\n%s", err, out)
	}
	for _, want := range []string{"Img Conv", "2MM", "linalg"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}
