package dialegg

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGolden optimizes every testdata/*.mlir with the rule set named in
// its leading "// RULES: <name>" comment and compares the printed result
// against the .golden file. Regenerate with:
//
//	go test ./internal/dialegg -run TestGolden -update
func TestGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/*.mlir")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden inputs found")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			srcBytes, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(srcBytes)
			ruleSet, ok := strings.CutPrefix(strings.SplitN(src, "\n", 2)[0], "// RULES: ")
			if !ok {
				t.Fatalf("%s: missing '// RULES: <name>' header", file)
			}
			var ruleSrcs []string
			switch strings.TrimSpace(ruleSet) {
			case "imgconv":
				ruleSrcs = rules.ImgConv()
			case "vecnorm":
				ruleSrcs = rules.VecNorm()
			case "poly":
				ruleSrcs = rules.Poly()
			case "matmul":
				ruleSrcs = rules.MatmulChain()
			case "fold":
				ruleSrcs = []string{rules.ArithCore, rules.ConstantFold}
			default:
				t.Fatalf("%s: unknown rule set %q", file, ruleSet)
			}

			reg := dialects.NewRegistry()
			m, err := mlir.ParseModule(src, reg)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			opt := NewOptimizer(Options{RuleSources: ruleSrcs})
			if _, err := opt.OptimizeModule(m); err != nil {
				t.Fatalf("optimize: %v", err)
			}
			got := mlir.PrintModule(m, reg)

			goldenPath := strings.TrimSuffix(file, ".mlir") + ".golden"
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// matrixFiles lists the modules of the golden matrices: every testdata
// module and every difftest-corpus module.
func matrixFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("testdata/*.mlir")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := filepath.Glob("../difftest/testdata/corpus/*.mlir")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, corpus...)
}

// matrixRuleSets are the bundled rule sets each matrix module runs under.
var matrixRuleSets = []string{"imgconv", "vecnorm", "poly", "matmul"}

// compareGolden checks got against the golden file at path, one
// "==== "-headed section at a time, or rewrites the file under -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		gotParts := strings.Split(got, "==== ")
		wantParts := strings.Split(string(want), "==== ")
		for i := range max(len(gotParts), len(wantParts)) {
			var g, w string
			if i < len(gotParts) {
				g = gotParts[i]
			}
			if i < len(wantParts) {
				w = wantParts[i]
			}
			if g != w {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, g, w)
			}
		}
	}
}

// TestGoldenMatrix optimizes every testdata and difftest-corpus module
// under each of the four bundled rule sets and compares the printed module,
// ExtractCost and ExtractDAGCost of every compile against
// testdata/matrix.golden, so a change to extraction or back-translation
// that moves any output shows up here. Regenerate with:
//
//	go test ./internal/dialegg -run TestGoldenMatrix -update
func TestGoldenMatrix(t *testing.T) {
	var b strings.Builder
	for _, file := range matrixFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, ruleSet := range matrixRuleSets {
			ruleSrcs, err := rules.Bundle(ruleSet)
			if err != nil {
				t.Fatal(err)
			}
			reg := dialects.NewRegistry()
			m, err := mlir.ParseModule(string(src), reg)
			if err != nil {
				t.Fatalf("%s: parse: %v", file, err)
			}
			rep, err := NewOptimizer(Options{RuleSources: ruleSrcs}).OptimizeModule(m)
			if err != nil {
				t.Fatalf("%s -rules %s: %v", file, ruleSet, err)
			}
			fmt.Fprintf(&b, "==== %s -rules %s: extract_cost %d, extract_dag_cost %d\n",
				filepath.ToSlash(file), ruleSet, rep.ExtractCost, rep.ExtractDAGCost)
			b.WriteString(mlir.PrintModule(m, reg))
		}
	}
	compareGolden(t, "testdata/matrix.golden", b.String())
}

// TestTranslationGolden pins the MLIR-to-egglog translation (§5.3): the
// (let ...) program that egg-opt -emit-egg prints for every
// TestGoldenMatrix module and rule set (testdata/translation.golden).
// Regenerate with:
//
//	go test ./internal/dialegg -run TestTranslationGolden -update
func TestTranslationGolden(t *testing.T) {
	var b strings.Builder
	for _, file := range matrixFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, ruleSet := range matrixRuleSets {
			ruleSrcs, err := rules.Bundle(ruleSet)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mlir.ParseModule(string(src), dialects.NewRegistry())
			if err != nil {
				t.Fatalf("%s: parse: %v", file, err)
			}
			prog, err := NewOptimizer(Options{RuleSources: ruleSrcs}).EggProgram(m)
			if err != nil {
				t.Fatalf("%s -rules %s: %v", file, ruleSet, err)
			}
			fmt.Fprintf(&b, "==== %s -rules %s\n", filepath.ToSlash(file), ruleSet)
			b.WriteString(prog)
		}
	}
	compareGolden(t, "testdata/translation.golden", b.String())
}
