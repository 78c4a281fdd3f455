package bench

import (
	"strings"
	"testing"
)

// TestTable1 checks the benchmark programs use the dialects the paper's
// Table 1 reports (non-zero where the paper is non-zero, zero where zero).
func TestTable1(t *testing.T) {
	rows, err := RunTable1(DefaultBenchmarks(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	// Paper Table 1 non-zero pattern per benchmark.
	wantNonZero := map[string][]string{
		"Img Conv": {"scf", "func", "tensor", "arith"},
		"Vec Norm": {"scf", "func", "tensor", "arith", "math"},
		"Poly":     {"scf", "func", "tensor", "arith", "math"},
		"2MM":      {"func", "tensor", "linalg"},
		"3MM":      {"func", "tensor", "linalg"},
	}
	wantZero := map[string][]string{
		"Img Conv": {"math", "linalg"},
		"Vec Norm": {"linalg"},
		"Poly":     {"linalg"},
		"2MM":      {"scf", "arith", "math"},
		"3MM":      {"scf", "arith", "math"},
	}
	for _, row := range rows {
		for _, d := range wantNonZero[row.Benchmark] {
			if row.Counts[d] == 0 {
				t.Errorf("%s: dialect %s should be used", row.Benchmark, d)
			}
		}
		for _, d := range wantZero[row.Benchmark] {
			if row.Counts[d] != 0 {
				t.Errorf("%s: dialect %s should be unused, found %d", row.Benchmark, d, row.Counts[d])
			}
		}
	}
	if s := FormatTable1(rows); !strings.Contains(s, "Img Conv") {
		t.Error("FormatTable1 missing benchmark name")
	}
	// 2MM op counts match the paper exactly: 6 ops total.
	for _, row := range rows {
		if row.Benchmark == "2MM" {
			total := 0
			for _, c := range row.Counts {
				total += c
			}
			if total != 6 {
				t.Errorf("2MM total ops = %d, want 6 (2 matmul + 2 empty + return + func)", total)
			}
		}
	}
}

// TestFig3CIScale runs the full Figure 3 pipeline at CI scale and checks
// the paper's qualitative results:
//   - DialEgg speeds up every benchmark,
//   - canonicalization alone gives ~1x on ImgConv and VecNorm,
//   - the greedy pass matches DialEgg on 2MM but loses on 3MM,
//   - 2MM/3MM show the largest speedups.
func TestFig3CIScale(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 pipeline is a few seconds; skipped in -short")
	}
	rows, err := RunFig3(DefaultBenchmarks(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench, variant string) VariantResult {
		for _, row := range rows {
			if row.Benchmark != bench {
				continue
			}
			for _, r := range row.Results {
				if r.Variant == variant {
					return r
				}
			}
		}
		t.Fatalf("missing %s/%s", bench, variant)
		return VariantResult{}
	}

	// DialEgg (with canon where the paper needs it) beats baseline
	// everywhere.
	for _, b := range []string{"Img Conv", "Vec Norm", "Poly", "2MM", "3MM"} {
		if s := get(b, VariantDialEggCanon).Speedup; s <= 1.0 {
			t.Errorf("%s: DialEgg+Canon speedup = %.3f, want > 1", b, s)
		}
	}
	// DialEgg alone speeds up ImgConv (div->shift) and VecNorm (fast inv
	// sqrt), as in the paper.
	if s := get("Img Conv", VariantDialEgg).Speedup; s <= 1.05 {
		t.Errorf("Img Conv DialEgg speedup = %.3f, want > 1.05", s)
	}
	if s := get("Vec Norm", VariantDialEgg).Speedup; s <= 1.05 {
		t.Errorf("Vec Norm DialEgg speedup = %.3f, want > 1.05", s)
	}
	// Canonicalization alone gives no real speedup on ImgConv/VecNorm
	// (paper: "do not achieve any speedup").
	for _, b := range []string{"Img Conv", "Vec Norm"} {
		if s := get(b, VariantCanon).Speedup; s > 1.05 {
			t.Errorf("%s: canonicalization speedup = %.3f, expected ~1", b, s)
		}
	}
	// 2MM/3MM exhibit the largest speedups (paper §8.3).
	maxScalar := 0.0
	for _, b := range []string{"Img Conv", "Vec Norm", "Poly"} {
		if s := get(b, VariantDialEggCanon).Speedup; s > maxScalar {
			maxScalar = s
		}
	}
	for _, b := range []string{"2MM", "3MM"} {
		if s := get(b, VariantDialEgg).Speedup; s <= maxScalar {
			t.Errorf("%s: speedup %.2f not the largest (scalar max %.2f)", b, s, maxScalar)
		}
	}
	// §8.4: the greedy pass matches DialEgg on 2MM...
	g2 := get("2MM", VariantGreedyPass).Speedup
	d2 := get("2MM", VariantDialEgg).Speedup
	if ratio := g2 / d2; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("2MM: greedy (%.2f) should match DialEgg (%.2f)", g2, d2)
	}
	// ...but fails to reach DialEgg on 3MM.
	g3 := get("3MM", VariantGreedyPass).Speedup
	d3 := get("3MM", VariantDialEgg).Speedup
	if g3 >= d3*0.999 {
		t.Errorf("3MM: greedy (%.3f) should lose to DialEgg (%.3f)", g3, d3)
	}

	if s := FormatFig3(rows); !strings.Contains(s, "Speedup bars") {
		t.Error("FormatFig3 missing chart")
	}
}

// TestTable2Benchmarks runs the compile-time breakdown for the five
// benchmarks (no scalability chains — those are exercised by the
// benchtab binary and Benchmark functions).
func TestTable2Benchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 runs the full optimizer; skipped in -short")
	}
	rows, err := RunTable2(DefaultBenchmarks(ScaleCI), []int{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, row := range rows {
		if row.EggTotal <= 0 {
			t.Errorf("%s: no egglog time recorded", row.Benchmark)
		}
		if row.NumRules == 0 {
			t.Errorf("%s: no rules counted", row.Benchmark)
		}
		if !row.Saturated {
			t.Errorf("%s: saturation did not converge", row.Benchmark)
		}
	}
	// Rule counts match the rule files: ImgConv 1 rule, VecNorm 1, 2MM 2
	// (cost rule + associativity).
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	if byName["Img Conv"].NumRules != 1 {
		t.Errorf("Img Conv rules = %d, want 1", byName["Img Conv"].NumRules)
	}
	if byName["Vec Norm"].NumRules != 1 {
		t.Errorf("Vec Norm rules = %d, want 1", byName["Vec Norm"].NumRules)
	}
	if byName["2MM"].NumRules != 2 {
		t.Errorf("2MM rules = %d, want 2", byName["2MM"].NumRules)
	}
	if byName["Poly"].NumRules != 8 {
		t.Errorf("Poly rules = %d, want 8 (as in the paper's Table 2)", byName["Poly"].NumRules)
	}
	if s := FormatTable2(rows); !strings.Contains(s, "Saturation") {
		t.Error("FormatTable2 missing column")
	}
}

// TestScalabilityChainsSmall runs short matmul chains and checks
// saturation time grows super-linearly while the greedy pass stays fast —
// the Table 2 scalability story in miniature. Each size's time is its
// minimum over three runs, so one descheduled sample cannot invert the
// order; the node counts check the same growth deterministically.
func TestScalabilityChainsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability study; skipped in -short")
	}
	var small, large Table2Row
	for run := 0; run < 3; run++ {
		rows, err := RunTable2(nil, []int{4, 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(rows))
		}
		if run == 0 || rows[0].Saturation < small.Saturation {
			small = rows[0]
		}
		if run == 0 || rows[1].Saturation < large.Saturation {
			large = rows[1]
		}
	}
	if large.Nodes <= small.Nodes {
		t.Errorf("e-graph should grow with chain length: %d -> %d nodes", small.Nodes, large.Nodes)
	}
	if large.Saturation <= small.Saturation {
		t.Errorf("saturation time should grow with chain length: %v -> %v", small.Saturation, large.Saturation)
	}
	if large.GreedyPass > large.Saturation {
		t.Errorf("greedy pass (%v) should be far cheaper than saturation (%v)", large.GreedyPass, large.Saturation)
	}
}
