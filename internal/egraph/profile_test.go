package egraph

// Tests for the saturation profiler's engine half: premise counters
// (RunConfig.Selectivity, RuleStats.Premises) and extraction blame
// analysis. The load-bearing properties are exactness and determinism —
// the counters come from the matcher's own per-step counts, so they must
// agree with RowsScanned, be byte-identical at every worker count (which
// sets the shard count), and turning them on must not change the graph.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dialegg/internal/obs/journal"
)

// premiseRules reaches every access path: comm scans its table (its
// delta frontier from the second iteration on), assoc probes the second
// Add by its first argument, and succ evaluates a primitive and then
// looks up the row it names.
func premiseRules(l *exprLang) []*Rule {
	g := l.g
	succ := &Rule{
		Name: "succ",
		Premises: []Premise{
			&TablePremise{Fn: l.Num, Args: []Atom{VarAtom(0)}, Out: VarAtom(1)},
			&EvalPremise{Prim: testPrims["+"], Args: []Atom{VarAtom(0), LitAtom(I64Value(g.I64, 1))}, Out: VarAtom(2)},
			&TablePremise{Fn: l.Num, Args: []Atom{VarAtom(2)}, Out: VarAtom(3)},
		},
		Actions: []Action{
			&InsertAction{T: &ATerm{Kind: AApp, Fn: l.Mul, Args: []*ATerm{{Kind: AVar, Slot: 1}, {Kind: AVar, Slot: 3}}}},
		},
		NumSlots: 4,
	}
	return []*Rule{commRule(l.Add), assocRule(l.Add), succ, commRule(l.Mul)}
}

// runPremises runs premiseRules for four iterations over a fresh
// 12-term addition chain and returns the report and the snapshot of the
// resulting graph.
func runPremises(t *testing.T, cfg RunConfig) (RunReport, []byte) {
	t.Helper()
	l := newExprLangQuiet()
	g := l.g
	prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
	for i := 1; i < 12; i++ {
		leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
		prev, _ = g.Insert(l.Add, prev, leaf)
	}
	cfg.IterLimit = 4
	rep := g.Run(premiseRules(l), cfg)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	snap, err := json.Marshal(g.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	return rep, snap
}

// premiseJSON marshals each rule's rows scanned and premise counters.
func premiseJSON(t *testing.T, rules []RuleStats) string {
	t.Helper()
	var b strings.Builder
	for _, rs := range rules {
		line, err := json.Marshal(struct {
			Name     string
			Rows     int64
			Premises []PremiseStats
		}{rs.Name, rs.RowsScanned, rs.Premises})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSelectivityWorkerIndependent: the premise counters are
// byte-identical for every worker count, in both match modes — the
// profile-artifact determinism guarantee rests on this.
func TestSelectivityWorkerIndependent(t *testing.T) {
	for _, naive := range []bool{false, true} {
		refRep, _ := runPremises(t, RunConfig{Workers: 1, Naive: naive, Selectivity: true})
		ref := premiseJSON(t, refRep.Rules)
		for _, workers := range []int{2, 3, 4, 8} {
			rep, _ := runPremises(t, RunConfig{Workers: workers, Naive: naive, Selectivity: true})
			if got := premiseJSON(t, rep.Rules); got != ref {
				t.Errorf("naive=%v: premises differ at workers=%d:\nref %s\ngot %s", naive, workers, ref, got)
			}
			if rep.Nodes != refRep.Nodes || rep.Iterations != refRep.Iterations {
				t.Errorf("naive=%v: run outcome differs at workers=%d", naive, workers)
			}
		}
	}
}

// TestSelectivityInvariants: every record passes RuleStats.Check — no
// premise matches more rows than it visited, a table premise attributes
// every execution to one access path and binds no column more often than
// it ran, and table-premise visits sum to the rule's rows scanned — the
// workload reaches every access path, and Check rejects a real record
// with a visit removed or an access path dropped, naming the rule.
func TestSelectivityInvariants(t *testing.T) {
	rep, _ := runPremises(t, RunConfig{Workers: 4, Selectivity: true})
	var paths [4]int64
	var evals int64
	for _, rs := range rep.Rules {
		if len(rs.Premises) == 0 {
			t.Fatalf("rule %s: no premises collected", rs.Name)
		}
		if err := rs.Check(); err != nil {
			t.Error(err)
		}
		for _, ps := range rs.Premises {
			paths[0] += ps.Lookups
			paths[1] += ps.IndexProbes
			paths[2] += ps.FullScans
			paths[3] += ps.DeltaScans
			if ps.Kind == "eval" {
				evals += ps.Execs
			}
		}
	}
	if paths[0] == 0 || paths[1] == 0 || paths[2] == 0 || paths[3] == 0 || evals == 0 {
		t.Errorf("workload misses an access path: lookups/probes/full/delta %v, eval execs %d", paths, evals)
	}

	// assoc's first premise visits more rows than it passes, so only the
	// rows-scanned cross-check sees a visit go missing.
	assoc := rep.Rules[1]
	broken := []struct {
		name string
		edit func(*PremiseStats)
		want string
	}{
		{"visit removed", func(ps *PremiseStats) { ps.Visits-- }, "rows_scanned"},
		{"access path dropped", func(ps *PremiseStats) { ps.FullScans, ps.DeltaScans = 0, 0 }, "access paths"},
	}
	for _, b := range broken {
		rs := MergeRuleStats(nil, []RuleStats{assoc})[0]
		b.edit(&rs.Premises[0])
		err := rs.Check()
		if err == nil || !strings.Contains(err.Error(), "rule "+assoc.Name) || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: Check() = %v, want an error naming rule %s and %q", b.name, err, assoc.Name, b.want)
		}
	}
}

// TestSelectivityOffPath: with Selectivity off no rule carries premises,
// and turning it on changes neither the resulting graph nor the rows the
// run scans.
func TestSelectivityOffPath(t *testing.T) {
	offRep, offSnap := runPremises(t, RunConfig{Workers: 2})
	onRep, onSnap := runPremises(t, RunConfig{Workers: 2, Selectivity: true})
	for i, rs := range offRep.Rules {
		if rs.Premises != nil {
			t.Errorf("rule %s: premises collected with Selectivity off", rs.Name)
		}
		if on := onRep.Rules[i]; len(on.Premises) == 0 || on.RowsScanned != rs.RowsScanned {
			t.Errorf("rule %s: Selectivity on gave %d premises and %d rows, off %d rows", rs.Name, len(on.Premises), on.RowsScanned, rs.RowsScanned)
		}
	}
	if !bytes.Equal(offSnap, onSnap) {
		t.Error("turning Selectivity on changed the resulting graph")
	}
	if offRep.RowsScanned != onRep.RowsScanned || offRep.Iterations != onRep.Iterations {
		t.Error("turning Selectivity on changed the run's work")
	}
}

// TestMergeRuleStatsPremises: merging sums premises by rule name —
// folding a report into itself doubles every counter — and premises are
// copied as they enter the aggregate, so folding more into it never
// writes through to a source.
func TestMergeRuleStatsPremises(t *testing.T) {
	rep, _ := runPremises(t, RunConfig{Workers: 1, Selectivity: true})
	want := premiseJSON(t, rep.Rules)
	var agg RunReport
	agg.Merge(rep)
	agg.Merge(rep)
	if got := premiseJSON(t, rep.Rules); got != want {
		t.Errorf("merging changed the source report:\nwas %s\nnow %s", want, got)
	}
	for i, rs := range rep.Rules {
		for j, ps := range rs.Premises {
			m := agg.Rules[i].Premises[j]
			if m.Execs != 2*ps.Execs || m.Visits != 2*ps.Visits || m.Matches != 2*ps.Matches {
				t.Errorf("rule %s premise %d: merge did not sum", rs.Name, j)
			}
		}
	}

	// Premises src has beyond dst's are appended as copies too.
	src := []RuleStats{{Name: "r", Premises: []PremiseStats{{BoundCols: []int64{1}}, {BoundCols: []int64{1}}}}}
	dst := MergeRuleStats([]RuleStats{{Name: "r", Premises: []PremiseStats{{BoundCols: []int64{1}}}}}, src)
	MergeRuleStats(dst, src)
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
