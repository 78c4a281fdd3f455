package egraph

// Tests for the saturation profiler's engine half: sampled premise
// selectivity (RunConfig.ProfileSample) and extraction blame analysis.
// The load-bearing property is determinism — sampling is keyed to global
// row indices, so the counters must be byte-identical at every worker
// count (which sets the shard count), and turning sampling on must not
// change the graph.

import (
	"bytes"
	"encoding/json"
	"testing"

	"dialegg/internal/obs/journal"
)

// runSelectivity saturates a fresh chain graph with the given worker
// count and returns the marshaled selectivity section.
func runSelectivity(t *testing.T, naive bool, workers, sample int) ([]byte, RunReport) {
	t.Helper()
	l, rules := buildChainGraph()
	rep := l.g.Run(rules, RunConfig{
		IterLimit:     4,
		Workers:       workers,
		ProfileSample: sample,
		Naive:         naive,
	})
	b, err := json.Marshal(rep.Selectivity)
	if err != nil {
		t.Fatal(err)
	}
	return b, rep
}

// TestSelectivityWorkerIndependent: the sampled counters are byte-identical
// for every worker count, in both match modes and at several sampling
// periods — the profile-artifact determinism guarantee rests on this.
func TestSelectivityWorkerIndependent(t *testing.T) {
	for _, naive := range []bool{false, true} {
		for _, sample := range []int{1, 3} {
			ref, refRep := runSelectivity(t, naive, 1, sample)
			for _, workers := range []int{2, 3, 4, 8} {
				got, gotRep := runSelectivity(t, naive, workers, sample)
				if string(got) != string(ref) {
					t.Errorf("naive=%v sample=%d: selectivity differs at workers=%d:\nref %s\ngot %s",
						naive, sample, workers, ref, got)
				}
				if gotRep.Nodes != refRep.Nodes || gotRep.Iterations != refRep.Iterations {
					t.Errorf("naive=%v sample=%d: run outcome differs at workers=%d", naive, sample, workers)
				}
			}
		}
	}
}

// TestSelectivityInvariants: the counters satisfy their cross-field
// contracts — matches never exceed visits, table premises attribute every
// execution to exactly one access path, bound-column counts never exceed
// executions, and a positive sampling period on a scanning workload
// samples roots.
func TestSelectivityInvariants(t *testing.T) {
	_, rep := runSelectivity(t, false, 4, 2)
	if len(rep.Selectivity) == 0 {
		t.Fatal("no selectivity collected")
	}
	var roots int64
	for _, rs := range rep.Selectivity {
		if rs.SampleEvery != 2 {
			t.Errorf("rule %s: sample_every = %d, want 2", rs.Rule, rs.SampleEvery)
		}
		roots += rs.SampledRoots
		for _, ps := range rs.Premises {
			if ps.Matches > ps.Visits {
				t.Errorf("rule %s premise %d: matches %d > visits %d", rs.Rule, ps.Index, ps.Matches, ps.Visits)
			}
			paths := ps.Lookups + ps.IndexProbes + ps.FullScans + ps.DeltaScans
			switch ps.Kind {
			case "table":
				if paths != ps.Execs {
					t.Errorf("rule %s premise %d: access paths %d != execs %d", rs.Rule, ps.Index, paths, ps.Execs)
				}
			case "eval":
				if paths != 0 {
					t.Errorf("rule %s premise %d: eval premise has access paths", rs.Rule, ps.Index)
				}
			}
			for col, n := range ps.BoundCols {
				if n > ps.Execs {
					t.Errorf("rule %s premise %d col %d: bound %d > execs %d", rs.Rule, ps.Index, col, n, ps.Execs)
				}
			}
		}
	}
	if roots == 0 {
		t.Error("sampling on a scanning workload collected zero roots")
	}
}

// TestProfileSampleOffPath: ProfileSample 0 collects nothing, and enabling
// it changes neither the resulting graph nor the work the run does.
func TestProfileSampleOffPath(t *testing.T) {
	run := func(sample int) ([]byte, RunReport) {
		l, rules := buildChainGraph()
		rep := l.g.Run(rules, RunConfig{IterLimit: 4, Workers: 2, ProfileSample: sample})
		snap, err := json.Marshal(l.g.Snapshot(0))
		if err != nil {
			t.Fatal(err)
		}
		return snap, rep
	}
	offSnap, offRep := run(0)
	if offRep.Selectivity != nil {
		t.Errorf("ProfileSample=0 collected selectivity")
	}
	onSnap, onRep := run(2)
	if len(onRep.Selectivity) == 0 {
		t.Errorf("ProfileSample=2 collected nothing")
	}
	if string(offSnap) != string(onSnap) {
		t.Error("enabling ProfileSample changed the resulting graph")
	}
	if offRep.RowsScanned != onRep.RowsScanned || offRep.Iterations != onRep.Iterations {
		t.Error("enabling ProfileSample changed the run's work")
	}
}

// TestMergeSelectivity: merging is summation by rule name — folding a
// section into itself doubles every counter.
func TestMergeSelectivity(t *testing.T) {
	_, rep := runSelectivity(t, false, 1, 1)
	merged := MergeSelectivity(nil, rep.Selectivity)
	merged = MergeSelectivity(merged, rep.Selectivity)
	if len(merged) != len(rep.Selectivity) {
		t.Fatalf("merged %d rules, want %d", len(merged), len(rep.Selectivity))
	}
	for i, rs := range rep.Selectivity {
		m := merged[i]
		if m.Rule != rs.Rule || m.SampledRoots != 2*rs.SampledRoots {
			t.Errorf("rule %s: merged roots %d, want %d", rs.Rule, m.SampledRoots, 2*rs.SampledRoots)
		}
		for j, ps := range rs.Premises {
			if m.Premises[j].Visits != 2*ps.Visits || m.Premises[j].Matches != 2*ps.Matches {
				t.Errorf("rule %s premise %d: merge did not sum", rs.Rule, j)
			}
		}
	}

	// Premises src has beyond dst's are appended as copies, so folding
	// more into the result never writes through to src.
	src := []RuleSelectivity{{Rule: "r", Premises: []PremiseStats{{BoundCols: []int64{1}}, {BoundCols: []int64{1}}}}}
	dst := MergeSelectivity([]RuleSelectivity{{Rule: "r", Premises: []PremiseStats{{BoundCols: []int64{1}}}}}, src)
	MergeSelectivity(dst, src)
	if got := src[0].Premises[1].BoundCols[0]; got != 1 {
		t.Errorf("merging into the result changed src's bound-column count to %d", got)
	}
}

// TestBlameClassification: a three-rule workload with a known verdict for
// every row. Seed: root = Mul(Num 1, Num 2). Rule mul-to-add unions the
// root with the cheaper Add(x,y) — its row is chosen by extraction. Rule
// wasteful inserts Div(x,y) into a fresh class nothing reaches — pure
// waste. The seed Mul row stays in the (reachable) root class but loses to
// the Add node — rejected.
func TestBlameClassification(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	a, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	b, _ := g.Insert(l.Num, I64Value(g.I64, 2))
	root, _ := g.Insert(l.Mul, a, b)

	mulToAdd := &Rule{
		Name: "mul-to-add",
		Premises: []Premise{
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
		},
		Actions: []Action{
			&UnionAction{
				A: &ATerm{Kind: AVar, Slot: 2},
				B: &ATerm{Kind: AApp, Fn: l.Add, Args: []*ATerm{{Kind: AVar, Slot: 0}, {Kind: AVar, Slot: 1}}},
			},
		},
		NumSlots: 3,
	}
	wasteful := &Rule{
		Name: "wasteful",
		Premises: []Premise{
			&TablePremise{Fn: l.Mul, Args: []Atom{VarAtom(0), VarAtom(1)}, Out: VarAtom(2)},
		},
		Actions: []Action{
			&InsertAction{T: &ATerm{Kind: AApp, Fn: l.Div, Args: []*ATerm{{Kind: AVar, Slot: 0}, {Kind: AVar, Slot: 1}}}},
		},
		NumSlots: 3,
	}
	rep := g.Run([]*Rule{mulToAdd, wasteful}, RunConfig{IterLimit: 10})
	if !rep.Saturated() {
		t.Fatalf("stop = %s, want saturated", rep.Stop)
	}

	ex := NewExtractor(g)
	blame, err := ex.Blame([]Value{root})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]BlameRow{
		"(seed)":     {Rule: "(seed)", Rows: 3, Extracted: 2, Rejected: 1},
		"mul-to-add": {Rule: "mul-to-add", Rows: 1, Extracted: 1},
		"wasteful":   {Rule: "wasteful", Rows: 1, Waste: 1, WasteRatio: 1},
	}
	if len(blame) != len(want) {
		t.Fatalf("blame rows: got %d, want %d: %+v", len(blame), len(want), blame)
	}
	for _, br := range blame {
		w, ok := want[br.Rule]
		if !ok {
			t.Errorf("unexpected blame rule %q: %+v", br.Rule, br)
			continue
		}
		if br != w {
			t.Errorf("blame[%s] = %+v, want %+v", br.Rule, br, w)
		}
	}

	// MergeBlame is summation by rule: folding the result into itself
	// doubles the counts and preserves every ratio.
	merged := MergeBlame(MergeBlame(nil, blame), blame)
	for i, br := range blame {
		m := merged[i]
		if m.Rows != 2*br.Rows || m.Waste != 2*br.Waste || m.WasteRatio != br.WasteRatio {
			t.Errorf("merge[%s] = %+v, want doubled %+v", br.Rule, m, br)
		}
	}
}

// TestRowsCreatedAttribution: per-rule growth attribution — the rule
// that inserts rows gets them, the rule that only unions gets the unions.
func TestRowsCreatedAttribution(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	a, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	b, _ := g.Insert(l.Num, I64Value(g.I64, 2))
	g.Insert(l.Mul, a, b)
	rep := g.Run([]*Rule{commRule(l.Mul)}, RunConfig{IterLimit: 10})
	if !rep.Saturated() {
		t.Fatalf("stop = %s, want saturated", rep.Stop)
	}
	rs := rep.Rules[0]
	// comm inserts Mul(b,a) — one new row — and unions it with Mul(a,b).
	if rs.RowsCreated < 1 {
		t.Errorf("RowsCreated = %d, want >= 1", rs.RowsCreated)
	}
	if rs.UnionsMade < 1 {
		t.Errorf("UnionsMade = %d, want >= 1", rs.UnionsMade)
	}
}

// TestRowsCreatedMatchesJournal: the live growth attribution (each apply
// batch's row and union deltas) equals, rule for rule, the count of the
// journal's non-rebuild insert/set and union events that carry the rule
// as provenance — in both match modes and at any worker count.
func TestRowsCreatedMatchesJournal(t *testing.T) {
	for _, tc := range []struct {
		naive   bool
		workers int
	}{{false, 1}, {false, 4}, {true, 2}} {
		l := newExprLangQuiet()
		g := l.g
		var buf bytes.Buffer
		jw := journal.NewWriter(&buf)
		g.SetJournal(jw, "growth")
		prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
		for i := 1; i < 10; i++ {
			leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
			prev, _ = g.Insert(l.Add, prev, leaf)
		}
		g.Insert(l.Mul, prev, prev)
		rep := g.Run([]*Rule{commRule(l.Add), assocRule(l.Add), commRule(l.Mul)},
			RunConfig{IterLimit: 4, Workers: tc.workers, Naive: tc.naive})
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		events, err := journal.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string]int64{}
		unions := map[string]uint64{}
		for _, e := range events {
			if e.Rebuild || e.Rule == "" {
				continue
			}
			switch e.Kind {
			case journal.KInsert, journal.KSet:
				rows[e.Rule]++
			case journal.KUnion:
				unions[e.Rule]++
			}
		}
		grew := false
		for _, rs := range rep.Rules {
			if rs.RowsCreated != rows[rs.Name] || rs.UnionsMade != unions[rs.Name] {
				t.Errorf("naive=%v workers=%d rule %s: stats rows/unions %d/%d, journal %d/%d",
					tc.naive, tc.workers, rs.Name, rs.RowsCreated, rs.UnionsMade, rows[rs.Name], unions[rs.Name])
			}
			grew = grew || rs.RowsCreated > 0
			delete(rows, rs.Name)
			delete(unions, rs.Name)
		}
		if !grew {
			t.Errorf("naive=%v workers=%d: no rule created rows", tc.naive, tc.workers)
		}
		if len(rows)+len(unions) > 0 {
			t.Errorf("naive=%v workers=%d: journal attributes growth to rules the report lacks: %v %v",
				tc.naive, tc.workers, rows, unions)
		}
	}
}
