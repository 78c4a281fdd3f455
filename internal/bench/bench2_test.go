package bench

import "testing"

// TestBench2Golden pins the -bench2 table at CI scale: iterations, naive,
// semi-naive and scheduled row visits (total and from iteration 2 on), and
// the reference backoff scheduler's bans and caps on the five paper
// benchmarks and the 20-matmul chain. Every counter is deterministic, so
// any change to how matching plans, enumerates or counts rows, or to how
// the scheduler reacts, shows here exactly. Regenerate with -update only
// when the counters are meant to change.
func TestBench2Golden(t *testing.T) {
	rows, err := RunBench2(Bench2Benchmarks(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bench2.golden", []byte(FormatBench2(rows)))
}
