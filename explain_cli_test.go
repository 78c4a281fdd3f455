package dialegg_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestEggOptExplainGolden pins egg-opt's -explain -explain-extraction
// stderr on three paper workloads: the rewrite proofs and the extraction
// decisions (chosen node, cost breakdown, rejected alternatives and their
// creating rules) depend only on the saturated graph and the extractor's
// choices, so the reports must not drift. Regenerate with:
//
//	go test -run TestEggOptExplainGolden -update .
func TestEggOptExplainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bin := buildTool(t, "egg-opt")
	for _, c := range []struct{ rules, module string }{
		{"imgconv", "div_pow2"},
		{"poly", "horner"},
		{"vecnorm", "fast_inv_sqrt"},
	} {
		t.Run(c.module, func(t *testing.T) {
			cmd := exec.Command(bin, "-rules", c.rules, "-explain", "-explain-extraction",
				filepath.Join("internal", "dialegg", "testdata", c.module+".mlir"))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("egg-opt: %v\n%s", err, stderr.Bytes())
			}
			goldenPath := filepath.Join("testdata", "explain_"+c.module+".golden")
			if *updateProfGolden {
				if err := os.WriteFile(goldenPath, stderr.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stderr.Bytes(), golden) {
				t.Errorf("explanations drifted from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", goldenPath, stderr.Bytes(), golden)
			}
		})
	}
}
