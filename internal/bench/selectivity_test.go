package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSelectivityGolden pins the premise counters (RuleStats.Premises,
// beside each rule's rows scanned) of two compiles, the 20-matmul chain
// and Poly. Each is compared at one and two workers against
// testdata/selectivity.golden, so a change to how the match phase
// enumerates or counts rows shows here. Regenerate with -update only when
// the counters are meant to change.
func TestSelectivityGolden(t *testing.T) {
	workloads := []struct {
		name, src string
		rules     []string
	}{
		{"20MM", MatmulChainSource("mm20", NMMDims(20)), rules.MatmulChain()},
		{"Poly", PolySource(20_000), rules.Poly()},
	}
	var got bytes.Buffer
	for _, w := range workloads {
		var ref []byte
		for _, workers := range []int{1, 2} {
			m, err := mlir.ParseModule(w.src, dialects.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			opt := dialegg.NewOptimizer(dialegg.Options{
				RuleSources: w.rules,
				RunConfig:   egraph.RunConfig{Workers: workers, Selectivity: true},
			})
			rep, err := opt.OptimizeModule(m)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var b []byte
			for _, rs := range rep.Run.Rules {
				line, err := json.Marshal(struct {
					Rule        string                `json:"rule"`
					RowsScanned int64                 `json:"rows_scanned"`
					Premises    []egraph.PremiseStats `json:"premises"`
				}{rs.Name, rs.RowsScanned, rs.Premises})
				if err != nil {
					t.Fatal(err)
				}
				b = append(append(b, line...), '\n')
			}
			if ref == nil {
				ref = b
				fmt.Fprintf(&got, "== %s\n%s", w.name, b)
			} else if !bytes.Equal(b, ref) {
				t.Errorf("%s: premise counters at %d workers differ from 1 worker", w.name, workers)
			}
		}
	}
	checkGolden(t, "selectivity.golden", got.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update. On a mismatch it reports each line that differs, so the
// counters that moved show.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Errorf("%s line %d:\nwant %s\ngot  %s", path, i+1, w, g)
		}
	}
	t.Errorf("counters differ from %s (regenerate with -update only when they are meant to change)", path)
}
