package profile

// Tests for the profile artifact: canonical byte-identity across worker
// counts, merge summation, schema linting, and the on-disk round trip.

import (
	"bytes"
	"path/filepath"
	"testing"

	"dialegg/internal/egraph"
)

// chainWorkload builds an Add/Mul chain with commutativity rules — the
// same shape the egraph tests saturate — and returns the graph and rules.
func chainWorkload(t *testing.T, leaves int) (*egraph.EGraph, []*egraph.Rule) {
	t.Helper()
	g := egraph.New()
	expr, err := g.AddEqSort("Expr")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, cost int64, params ...*egraph.Sort) *egraph.Function {
		f, err := g.DeclareFunction(&egraph.Function{Name: name, Params: params, Out: expr, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	num := mk("Num", 1, g.I64)
	add := mk("Add", 1, expr, expr)
	mul := mk("Mul", 2, expr, expr)
	prev, _ := g.Insert(num, egraph.I64Value(g.I64, 0))
	for i := 1; i < leaves; i++ {
		leaf, _ := g.Insert(num, egraph.I64Value(g.I64, int64(i)))
		prev, _ = g.Insert(add, prev, leaf)
	}
	comm := func(f *egraph.Function) *egraph.Rule {
		return &egraph.Rule{
			Name: "comm-" + f.Name,
			Premises: []egraph.Premise{
				&egraph.TablePremise{Fn: f, Args: []egraph.Atom{egraph.VarAtom(0), egraph.VarAtom(1)}, Out: egraph.VarAtom(2)},
			},
			Actions: []egraph.Action{
				&egraph.UnionAction{
					A: &egraph.ATerm{Kind: egraph.AVar, Slot: 2},
					B: &egraph.ATerm{Kind: egraph.AApp, Fn: f, Args: []*egraph.ATerm{{Kind: egraph.AVar, Slot: 1}, {Kind: egraph.AVar, Slot: 0}}},
				},
			},
			NumSlots: 3,
		}
	}
	return g, []*egraph.Rule{comm(add), comm(mul)}
}

func runProfile(t *testing.T, workers int) *Profile {
	t.Helper()
	g, rules := chainWorkload(t, 40)
	rep := g.Run(rules, egraph.RunConfig{
		IterLimit:   4,
		Workers:     workers,
		Selectivity: true,
	})
	return FromRunReport(rep, nil)
}

// TestCanonicalWorkerIndependent: the canonical artifact is byte-identical
// at every worker count — the determinism guarantee the perf-regression
// observatory diffs against.
func TestCanonicalWorkerIndependent(t *testing.T) {
	ref, err := runProfile(t, 1).Canonical().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, err := runProfile(t, workers).Canonical().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("canonical artifact differs at workers=%d:\nref:\n%s\ngot:\n%s", workers, ref, got)
		}
	}
}

// TestMergeSums: merging a profile into itself doubles every counter,
// keeps canonical order, and leaves the merged-in profile unchanged.
func TestMergeSums(t *testing.T) {
	p := runProfile(t, 2)
	q := runProfile(t, 2)
	before := append([]egraph.RuleStats(nil), p.Rules...)
	qBefore, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p.Merge(q)
	if err := p.Lint(); err != nil {
		t.Fatalf("merged profile fails lint: %v", err)
	}
	if p.Runs != 2 {
		t.Errorf("runs = %d, want 2", p.Runs)
	}
	for i, rs := range p.Rules {
		if rs.Matched != 2*before[i].Matched || rs.RowsCreated != 2*before[i].RowsCreated {
			t.Errorf("rule %s: merge did not double counters", rs.Name)
		}
		if rs.MatchTime != before[i].MatchTime+q.Rules[i].MatchTime {
			t.Errorf("rule %s: merge did not sum match time", rs.Name)
		}
		if rs.Premises[0].Visits != 2*q.Rules[i].Premises[0].Visits || rs.Premises[0].Visits != rs.RowsScanned {
			t.Errorf("rule %s: merge did not double premise visits", rs.Name)
		}
	}
	if qAfter, _ := q.Encode(); !bytes.Equal(qAfter, qBefore) {
		t.Error("merge modified the merged-in profile")
	}
}

// TestLintViolations: each schema violation is rejected.
func TestLintViolations(t *testing.T) {
	base := func() *Profile {
		p := New()
		p.Runs = 1
		p.Rules = []egraph.RuleStats{{Name: "a", Matched: 2, Applied: 2}, {Name: "b"}}
		p.Blame = []egraph.BlameRow{{Rule: "a", Rows: 2, Extracted: 1, Waste: 1, WasteRatio: 0.5}}
		return p
	}
	if err := base().Lint(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := map[string]func(*Profile){
		"bad schema":      func(p *Profile) { p.Schema = "nope" },
		"v1 schema":       func(p *Profile) { p.Schema = "dialegg-profile/v1" },
		"premise visits":  func(p *Profile) { p.Rules[1].Premises = []egraph.PremiseStats{{Kind: "table", Visits: 1}} },
		"unsorted rules":  func(p *Profile) { p.Rules[0], p.Rules[1] = p.Rules[1], p.Rules[0] },
		"duplicate rules": func(p *Profile) { p.Rules[1].Name = "a" },
		"applied>matched": func(p *Profile) { p.Rules[0].Applied = 3 },
		"blame sum":       func(p *Profile) { p.Blame[0].Waste = 5 },
		"ratio range":     func(p *Profile) { p.Blame[0].WasteRatio = 1.5 },
		"negative rows":   func(p *Profile) { p.Rules[0].RowsScanned = -1 },
		"negative time":   func(p *Profile) { p.Rules[0].ApplyTime = -1 },
	}
	for name, mutate := range cases {
		p := base()
		mutate(p)
		if err := p.Lint(); err == nil {
			t.Errorf("%s: lint accepted invalid profile", name)
		}
	}
}

// TestRoundTrip: Write then ReadFile reproduces the artifact and the
// formatting entry points render it without panicking.
func TestRoundTrip(t *testing.T) {
	p := runProfile(t, 4)
	p.Blame = []egraph.BlameRow{{Rule: "comm-Add", Rows: 4, Extracted: 1, Rejected: 2, Waste: 1, WasteRatio: 0.25}}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := p.Write(path); err != nil {
		t.Fatal(err)
	}
	q, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := p.Encode()
	qb, _ := q.Encode()
	if !bytes.Equal(pb, qb) {
		t.Error("round trip changed the artifact")
	}
	for name, s := range map[string]string{
		"top":         q.FormatTop(5),
		"blame":       q.FormatBlame(),
		"selectivity": q.FormatSelectivity(),
	} {
		if s == "" {
			t.Errorf("%s report is empty", name)
		}
	}
}
