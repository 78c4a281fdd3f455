package dialegg

import (
	"fmt"
	"os"
	"path/filepath"
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

// TestReportDAGCostPinned pins the DAG cost of two matmul chains, whose
// matmuls carry unstable-cost overrides: DAG cost counts each class at the
// override, as tree cost does, so it never exceeds tree cost. Of
// matmul_assoc's 170,015, 150,000 is the original A×B: a dead block
// element that the back-translation sweeps.
func TestReportDAGCostPinned(t *testing.T) {
	for _, c := range []struct {
		path string
		want int64
	}{
		{"testdata/matmul_assoc.mlir", 170015},
		{"../difftest/testdata/corpus/matmul_shared_empty.mlir", 135},
	} {
		src, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, _ := optimize(t, string(src), rules.MatmulChain())
		if rep.ExtractDAGCost != c.want || rep.ExtractDAGCost > rep.ExtractCost {
			t.Errorf("%s: DAG cost %d (tree cost %d), want %d", c.path, rep.ExtractDAGCost, rep.ExtractCost, c.want)
		}
	}
}

// TestExtractedSubtermIdentity checks that structural identity of
// extracted subterms is class identity, the reason the back-translation
// (which keys its SSA sharing by e-class) and DAG cost (which counts each
// class once) give each distinct subterm one definition: in every
// function's extracted term, two list subterms other than vec-of are the
// same pointer (Extract renders each class once) exactly when they print
// alike. It runs every testdata and difftest-corpus module under every
// bundled rule set, and checks DAG cost against tree cost on each.
func TestExtractedSubtermIdentity(t *testing.T) {
	files, err := filepath.Glob("testdata/*.mlir")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := filepath.Glob("../difftest/testdata/corpus/*.mlir")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, corpus...)
	bundles := [][]string{rules.ImgConv(), rules.VecNorm(), rules.Poly(), rules.MatmulChain()}
	shared := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for bi, ruleSrcs := range bundles {
			m, _ := parseModule(t, string(src))
			o := NewOptimizer(Options{RuleSources: ruleSrcs})
			for _, f := range m.Body().Ops {
				if f.Name != "func.func" {
					continue
				}
				where := fmt.Sprintf("%s, bundle %d, @%s", file, bi, mlir.FuncName(f))
				term, cost, dag := extractFunc(t, o, f)
				if dag > cost {
					t.Errorf("%s: DAG cost %d exceeds tree cost %d", where, dag, cost)
				}
				byText := make(map[string]*sexp.Node)
				seen := make(map[*sexp.Node]bool)
				var walk func(n *sexp.Node)
				walk = func(n *sexp.Node) {
					if n.Kind != sexp.KindList {
						return
					}
					if seen[n] {
						shared++
						return
					}
					seen[n] = true
					if n.Head() != "vec-of" {
						text := n.String()
						if prev, ok := byText[text]; ok && prev != n {
							t.Errorf("%s: two nodes print as %s", where, text)
						}
						byText[text] = n
					}
					for _, a := range n.Args() {
						walk(a)
					}
				}
				walk(term)
			}
		}
	}
	if shared == 0 {
		t.Error("no extracted term shares a subterm; the check saw nothing")
	}
}

// extractFunc runs OptimizeFuncCtx's pipeline on f up to extraction and
// returns the extracted term with its tree and DAG costs.
func extractFunc(t *testing.T, o *Optimizer, f *mlir.Operation) (*sexp.Node, int64, int64) {
	t.Helper()
	tmpl, err := o.template()
	if err != nil {
		t.Fatal(err)
	}
	p := tmpl.prog.Clone()
	tr, err := translateFunc(f, tmpl.encs, nil, p.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if run := p.RunRules(o.opts.RunConfig); run.Err != nil {
		t.Fatal(run.Err)
	}
	root := tr.Root
	ex := p.Extractor()
	term, cost, err := ex.Extract(root)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := ex.DAGCost(root)
	if err != nil {
		t.Fatal(err)
	}
	return term, cost, dag
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
