package dialegg

import (
	"strconv"
	"strings"
	"testing"

	"dialegg/internal/mlir"
	"dialegg/internal/rules"
	"dialegg/internal/sexp"
)

func TestOptimizerErrorPaths(t *testing.T) {
	src := `
func.func @f(%x: i64) -> i64 {
  func.return %x : i64
}`
	m, _ := parseModule(t, src)
	cases := []struct {
		name    string
		ruleSrc string
		wantErr string
	}{
		{"syntax error", `(function`, "unclosed"},
		{"unknown sort", `(function f (Ghost) Op)`, "unknown sort"},
		{"unknown command", `(frobnicate)`, "unknown command"},
		{"bad rewrite rhs", `(sort S2) (function G () S2) (rewrite (G) ?unbound)`, "unbound"},
		{"duplicate function", `(function I64 () Type)`, "already declared"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := NewOptimizer(Options{RuleSources: []string{c.ruleSrc}})
			_, err := opt.OptimizeModule(m.Clone())
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("want error containing %q, got %v", c.wantErr, err)
			}
			if templates.get(opt.key) != nil {
				t.Error("a rule set that failed to build left a cached template")
			}
		})
	}
}

func TestOptimizerNonFuncTopLevelSkipped(t *testing.T) {
	src := `
func.func @f(%x: i64) -> i64 {
  func.return %x : i64
}
"mydialect.global"() {name = "g"} : () -> ()
`
	m, _, reg := optimize(t, src, rules.ImgConv())
	if countOps(m, "mydialect.global") != 1 {
		t.Errorf("top-level non-func op lost:\n%s", mlir.PrintModule(m, reg))
	}
}

func TestReportDAGCostSharesSubterms(t *testing.T) {
	// Two divisions by the same constant rewrite to the same shift e-node:
	// tree cost counts it twice, DAG cost once.
	src := `
func.func @share(%x: i64) -> i64 {
  %c512 = arith.constant 512 : i64
  %a = arith.divsi %x, %c512 : i64
  %b = arith.divsi %x, %c512 : i64
  %r = arith.addi %a, %b : i64
  func.return %r : i64
}`
	_, rep, _ := optimize(t, src, rules.ImgConv())
	if rep.ExtractDAGCost <= 0 {
		t.Fatal("DAG cost not computed")
	}
	if rep.ExtractDAGCost >= rep.ExtractCost {
		t.Errorf("DAG cost (%d) should be below tree cost (%d) when subterms are shared",
			rep.ExtractDAGCost, rep.ExtractCost)
	}
}

func TestTermDAGCost(t *testing.T) {
	costOf := func(head string) int64 {
		switch head {
		case "Mul":
			return 2
		case "Num", "Var":
			return 1
		}
		return 0
	}
	// (Mul (Var "a") (Var "a")): tree cost 4, DAG cost 3.
	term, err := sexp.ParseOne(`(Mul (Var "a") (Var "a"))`)
	if err != nil {
		t.Fatal(err)
	}
	if got := TermDAGCost(term, costOf); got != 3 {
		t.Errorf("DAG cost = %d, want 3", got)
	}

	// The same term with its (Var "a") shared by pointer, as extracted
	// terms share subterms, and (Mul x x) nested four deep: each level is
	// one distinct node, so the DAG cost is 1 + 2*4 = 9 while the tree has
	// 16 leaves.
	x := sexp.List(sexp.Symbol("Var"), sexp.String("a"))
	for i := 0; i < 4; i++ {
		x = sexp.List(sexp.Symbol("Mul"), x, x)
	}
	if got := TermDAGCost(x, costOf); got != 9 {
		t.Errorf("pointer-shared DAG cost = %d, want 9", got)
	}

	// Structurally equal but distinct nodes count once; structurally
	// different ones (the Int 1 vs the Float 1.0) do not.
	same := sexp.List(sexp.Symbol("Mul"),
		sexp.List(sexp.Symbol("Num"), sexp.Int(1)),
		sexp.List(sexp.Symbol("Num"), sexp.Int(1)))
	if got := TermDAGCost(same, costOf); got != 3 {
		t.Errorf("DAG cost of equal distinct subterms = %d, want 3", got)
	}
	differ := sexp.List(sexp.Symbol("Mul"),
		sexp.List(sexp.Symbol("Num"), sexp.Int(1)),
		sexp.List(sexp.Symbol("Num"), sexp.Float(1)))
	if got := TermDAGCost(differ, costOf); got != 4 {
		t.Errorf("DAG cost of different subterms = %d, want 4", got)
	}
}

// TestTemplateCacheBound: the cache holds at most templateCap templates
// and drops the least recently used one first.
func TestTemplateCacheBound(t *testing.T) {
	c := templateCache{m: make(map[templateKey]*cachedTemplate)}
	key := func(i int) templateKey { return templateKeyOf([]string{strconv.Itoa(i)}, false) }
	for i := 0; i < templateCap; i++ {
		c.put(key(i), &ruleTemplate{numRules: i})
	}
	c.get(key(0)) // key 1 is now the least recently used
	if got := c.put(key(templateCap), &ruleTemplate{}); got.numRules != 0 || len(c.m) != templateCap {
		t.Fatalf("after an insert beyond the cap: %d templates", len(c.m))
	}
	if c.get(key(1)) != nil {
		t.Error("the least recently used template was kept")
	}
	if tmpl := c.get(key(0)); tmpl == nil || tmpl.numRules != 0 {
		t.Error("a recently used template was dropped")
	}
	if tmpl := c.put(key(2), &ruleTemplate{numRules: -1}); tmpl.numRules != 2 {
		t.Error("put replaced a cached template instead of returning it")
	}
	if templateKeyOf([]string{"ab", "c"}, false) == templateKeyOf([]string{"a", "bc"}, false) ||
		templateKeyOf(nil, false) == templateKeyOf(nil, true) {
		t.Error("distinct rule sets share a template key")
	}
}
