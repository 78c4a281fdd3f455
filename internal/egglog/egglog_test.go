package egglog

import (
	"strings"
	"testing"

	"dialegg/internal/egraph"
	"dialegg/internal/sexp"
)

func mustExec(t *testing.T, p *Program, src string) []Result {
	t.Helper()
	res, err := p.ExecuteString(src)
	if err != nil {
		t.Fatalf("ExecuteString failed: %v\nsource:\n%s", err, src)
	}
	return res
}

// exprPrelude is the §2.3 arithmetic language from the paper.
const exprPrelude = `
(sort Expr)
(function Num (i64) Expr :cost 1)
(function Var (String) Expr :cost 1)
(function Add (Expr Expr) Expr :cost 1)
(function Mul (Expr Expr) Expr :cost 2)
(function Div (Expr Expr) Expr :cost 2)
(function Shl (Expr Expr) Expr :cost 1)
`

// paperRules are the §2.2 rewrite rules in egglog syntax (§2.3).
const paperRules = `
(rewrite (Div ?x ?x) (Num 1)) ; x / x => 1
(rewrite (Mul ?x (Num 1)) ?x) ; x * 1 => x
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(rewrite (Div (Mul ?x ?y) ?z) (Mul ?x (Div ?y ?z)))
`

func TestDeclarations(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude)
	f, ok := p.Graph().FunctionByName("Mul")
	if !ok {
		t.Fatal("Mul not declared")
	}
	if f.Cost != 2 || f.Arity() != 2 {
		t.Errorf("Mul cost=%d arity=%d", f.Cost, f.Arity())
	}
}

func TestLetAndExtractLiteralTerm(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude)
	res := mustExec(t, p, `
(let expr (Div (Mul (Var "a") (Num 2)) (Num 2)))
(extract expr)
`)
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	want := `(Div (Mul (Var "a") (Num 2)) (Num 2))`
	if got := res[0].Term.String(); got != want {
		t.Errorf("extract = %s, want %s", got, want)
	}
	// Cost: Div 2 + Mul 2 + Var 1 + Num 1 + Num 1 = 7.
	if res[0].Cost != 7 {
		t.Errorf("cost = %d, want 7", res[0].Cost)
	}
}

// TestFigure1EndToEnd runs the complete §2.2/§2.3 example through surface
// syntax: saturating (a*2)/2 and extracting just `a`.
func TestFigure1EndToEnd(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+paperRules)
	res := mustExec(t, p, `
(let expr (Div (Mul (Var "a") (Num 2)) (Num 2)))
(run 20)
(check (= expr (Var "a")))
(extract expr)
`)
	last := res[len(res)-1]
	if got := last.Term.String(); got != `(Var "a")` {
		t.Errorf("extract = %s, want (Var \"a\")", got)
	}
	run := res[0]
	if run.Command != "run" || !run.Report.Saturated() {
		t.Errorf("run did not saturate: %+v", run.Report)
	}
	// The e-graph must contain the a<<1 alternative (Figure 1's lighter
	// nodes).
	holds, err := p.Check(mustParseFacts(t, `(= (Mul (Var "a") (Num 2)) (Shl (Var "a") (Num 1)))`))
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Error("a*2 and a<<1 not unified")
	}
}

func mustParseFacts(t *testing.T, src string) []*sexp.Node {
	t.Helper()
	nodes, err := sexp.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestCheckFails(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude)
	mustExec(t, p, `(let a (Num 1)) (let b (Num 2))`)
	if _, err := p.ExecuteString(`(check (= a b))`); err == nil {
		t.Error("check of false fact should error")
	}
	mustExec(t, p, `(union a b) (check (= a b))`)
}

func TestBirewrite(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(birewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(let e (Shl (Var "v") (Num 1)))
(run 5)
(check (= e (Mul (Var "v") (Num 2))))
`)
}

// TestConditionalRewriteWhen exercises :when clauses with primitive guards.
func TestConditionalRewriteWhen(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
; divide by power of two becomes shift right (modelled as Div->Shl here)
(rewrite (Div ?x (Num ?n)) (Shl ?x (Num ?k))
  :when ((= ?k (log2 ?n)) (= ?n (<< 1 ?k))))
(let yes (Div (Var "a") (Num 256)))
(let no  (Div (Var "b") (Num 100)))
(run 5)
(check (= yes (Shl (Var "a") (Num 8))))
`)
	holds, err := p.Check(mustParseFacts(t, `(= no (Shl (Var "b") (Num ?k)))`))
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Error("non-power-of-two division must not be rewritten")
	}
}

// TestRuleWithComputation: constant folding in the style of §7.1.
func TestRuleWithComputation(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(rewrite (Add (Num ?x) (Num ?y)) (Num (+ ?x ?y)))
(let e (Add (Num 2) (Num 3)))
(run 5)
(check (= e (Num 5)))
(extract e)
`)
	res, _ := p.ExecuteString(`(extract e)`)
	if got := res[0].Term.String(); got != "(Num 5)" {
		t.Errorf("extract = %s, want (Num 5)", got)
	}
}

// TestRecursivePow reproduces §7.5's recursive exponentiation expansion on
// a simplified language: Pow(x, Num n) = Mul(x, Pow(x, n-1)), Pow(x,0)=1.
func TestRecursivePow(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(function Pow (Expr Expr) Expr :cost 50)
(rule ((= ?lhs (Pow ?x (Num ?n))) (>= ?n 1))
      ((union ?lhs (Mul ?x (Pow ?x (Num (- ?n 1)))))))
(rewrite (Pow ?x (Num 0)) (Num 1))
(rewrite (Mul ?x (Num 1)) ?x)
(rewrite (Mul (Num 1) ?x) ?x)
(let e (Pow (Var "x") (Num 3)))
(run 10)
(extract e)
`)
	res, _ := p.ExecuteString(`(extract e)`)
	got := res[0].Term.String()
	// x^3 should extract as x*(x*x) (Mul cost 2 each = 6+leaves < Pow 50).
	if strings.Contains(got, "Pow") {
		t.Errorf("extract still contains Pow: %s", got)
	}
	if strings.Count(got, "Mul") != 2 {
		t.Errorf("expected 2 Muls in %s", got)
	}
}

// TestPrimitiveFunctionTable: analysis tables in the style of listing 6
// (nrows/ncols over tensor types).
func TestPrimitiveFunctionTable(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort Type)
(sort IntVec (Vec i64))
(function RankedTensor (IntVec Type) Type)
(function F32 () Type)
(function nrows (Type) i64)
(function ncols (Type) i64)
(rule ((= ?t (RankedTensor ?shape ?)))
      ((set (nrows ?t) (vec-get ?shape 0))
       (set (ncols ?t) (vec-get ?shape 1))))
(let t1 (RankedTensor (vec-of 2 3) (F32)))
(run 3)
`)
	g := p.Graph()
	nrows, _ := g.FunctionByName("nrows")
	ncols, _ := g.FunctionByName("ncols")
	t1, _ := p.LookupLet("t1")
	r, ok := g.Lookup(nrows, t1)
	if !ok || r.AsI64() != 2 {
		t.Errorf("nrows = %v,%v want 2", r.AsI64(), ok)
	}
	cv, ok := g.Lookup(ncols, t1)
	if !ok || cv.AsI64() != 3 {
		t.Errorf("ncols = %v,%v want 3", cv.AsI64(), ok)
	}
}

// TestUnstableCost reproduces listing 5: a rule computes a data-dependent
// cost for matmul nodes and extraction respects it.
func TestUnstableCost(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort Type)
(sort Op)
(sort IntVec (Vec i64))
(function RankedTensor (IntVec Type) Type)
(function F32 () Type)
(function Matrix (String Type) Op)
(function MatMul (Op Op Type) Op)
(function type-of (Op) Type)
(function nrows (Type) i64)
(function ncols (Type) i64)
(rule ((= ?t (RankedTensor ?shape ?)))
      ((set (nrows ?t) (vec-get ?shape 0))
       (set (ncols ?t) (vec-get ?shape 1))))
(rule ((= ?m (Matrix ?name ?t))) ((set (type-of ?m) ?t)))
(rule ((= ?m (MatMul ?x ?y ?t))) ((set (type-of ?m) ?t)))
(rule ((= ?m (MatMul ?x ?y (RankedTensor ?d ?t)))
       (= ?a (nrows (type-of ?x)))
       (= ?b (ncols (type-of ?x)))
       (= ?c (ncols (type-of ?y))))
      ((unstable-cost (MatMul ?x ?y (RankedTensor ?d ?t)) (* (* ?a ?b) ?c))))
; associativity: (XY)Z = X(YZ)
(rule ((= ?lhs (MatMul (MatMul ?x ?y ?xy_t) ?z ?xyz_t))
       (= ?b (nrows (type-of ?y)))
       (= ?d (ncols (type-of ?z)))
       (= ?xyz_t (RankedTensor ?dim ?t)))
      ((let yz_t (RankedTensor (vec-of ?b ?d) ?t))
       (union ?lhs (MatMul ?x (MatMul ?y ?z yz_t) ?xyz_t))))
; X: 10x100, Y: 100x100, Z: 100x2 -- paper's §7.4 shape story:
; (XY)Z costs 10*100*100 + 10*100*2 = 102,000
; X(YZ) costs 100*100*2 + 10*100*2 = 22,000
(let X (Matrix "X" (RankedTensor (vec-of 10 100) (F32))))
(let Y (Matrix "Y" (RankedTensor (vec-of 100 100) (F32))))
(let Z (Matrix "Z" (RankedTensor (vec-of 100 2) (F32))))
(let XY (MatMul X Y (RankedTensor (vec-of 10 100) (F32))))
(let XYZ (MatMul XY Z (RankedTensor (vec-of 10 2) (F32))))
(run 10)
(extract XYZ)
`)
	res, err := p.ExecuteString(`(extract XYZ)`)
	if err != nil {
		t.Fatal(err)
	}
	got := res[0].Term.String()
	// The cheap association multiplies Y and Z first.
	if !strings.Contains(got, `(MatMul (Matrix "Y"`) {
		t.Errorf("extraction did not reassociate to X(YZ): %s", got)
	}
	if !strings.HasPrefix(got, `(MatMul (Matrix "X"`) {
		t.Errorf("outer matmul should multiply X by (YZ): %s", got)
	}
}

// TestTopLevelRelationFact: a bare relation application at the top level
// is a fact command populating the database.
func TestTopLevelRelationFact(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort E)
(function mk (i64) E)
(relation edge (E E))
(edge (mk 1) (mk 2))
(check (edge (mk 1) (mk 2)))
`)
}

func TestRelationFactsViaRules(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort E)
(function mk (i64) E)
(relation edge (E E))
(relation path (E E))
(rule ((edge ?a ?b)) ((path ?a ?b)))
(rule ((path ?a ?b) (edge ?b ?c)) ((path ?a ?c)))
(let n1 (mk 1))
(let n2 (mk 2))
(let n3 (mk 3))
(rule ((= ?x (mk 0))) ((edge n1 n2))) ; dummy — not fired (no mk 0)
`)
	// Insert edge facts programmatically.
	g := p.Graph()
	edge, _ := g.FunctionByName("edge")
	n1, _ := p.LookupLet("n1")
	n2, _ := p.LookupLet("n2")
	n3, _ := p.LookupLet("n3")
	if _, err := g.Insert(edge, n1, n2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Insert(edge, n2, n3); err != nil {
		t.Fatal(err)
	}
	p.RunRules(egraph.RunConfig{})
	holds, err := p.Check(mustParseFacts(t, `(path n1 n3)`))
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Error("transitive path not derived")
	}
}

func TestDatatypeCommand(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(datatype Math
  (MNum i64)
  (MAdd Math Math :cost 3))
(let e (MAdd (MNum 1) (MNum 2)))
(extract e)
`)
	res, _ := p.ExecuteString(`(extract e)`)
	if res[0].Cost != 5 { // 3 + 1 + 1
		t.Errorf("cost = %d, want 5", res[0].Cost)
	}
}

func TestVecSortAlias(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort IntVec (Vec i64))
(sort Op)
(function Blk (IntVec) Op)
(let b (Blk (vec-of 1 2 3)))
(extract b)
`)
	res, _ := p.ExecuteString(`(extract b)`)
	if got := res[0].Term.String(); got != "(Blk (vec-of 1 2 3))" {
		t.Errorf("extract = %s", got)
	}
}

func TestStringPrimitives(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort E)
(function S (String) E)
(rewrite (S ?x) (S (+ ?x "!")) :when ((= ?x "hi")))
(let e (S "hi"))
(run 3)
(check (= e (S "hi!")))
`)
}

func TestF64Primitives(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(function FNum (f64) Expr)
(rewrite (Add (FNum ?x) (FNum ?y)) (FNum (+ ?x ?y)))
(let e (Add (FNum 1.5) (FNum 2.25)))
(run 3)
(check (= e (FNum 3.75)))
`)
}

func TestErrorUnknownCommand(t *testing.T) {
	p := NewProgram()
	if _, err := p.ExecuteString(`(frobnicate 1 2)`); err == nil {
		t.Error("unknown command should error")
	}
}

func TestErrorUnknownSort(t *testing.T) {
	p := NewProgram()
	if _, err := p.ExecuteString(`(function f (Nope) Nope)`); err == nil {
		t.Error("unknown sort should error")
	}
}

func TestErrorUnboundActionVar(t *testing.T) {
	p := NewProgram()
	if _, err := p.ExecuteString(exprPrelude + `(rewrite (Num ?x) (Var ?y))`); err == nil {
		t.Error("unbound RHS variable should error")
	}
}

func TestErrorArity(t *testing.T) {
	p := NewProgram()
	if _, err := p.ExecuteString(exprPrelude + `(let e (Add (Num 1)))`); err == nil {
		t.Error("arity error should be reported")
	}
}

func TestRunReportsIterations(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+paperRules+`(let e (Div (Mul (Var "a") (Num 2)) (Num 2)))`)
	res := mustExec(t, p, `(run 20)`)
	if res[0].Report.Iterations == 0 {
		t.Error("run should record iterations")
	}
	if p.LastRun.Iterations != res[0].Report.Iterations {
		t.Error("LastRun not updated")
	}
}

func TestLetShadowing(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(let e (Num 1))
(let e (Num 2))
(check (= e (Num 2)))
`)
}

// TestWildcardPatterns: `?` and `_` match anything without binding.
func TestWildcardPatterns(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(rewrite (Div ? (Num 0)) (Num 0)) ; nonsense rule, tests wildcard syntax only
(let e (Div (Var "q") (Num 0)))
(run 2)
(check (= e (Num 0)))
`)
}

func BenchmarkSaturateFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewProgram()
		if _, err := p.ExecuteString(exprPrelude + paperRules + `
(let expr (Div (Mul (Var "a") (Num 2)) (Num 2)))
(run 20)
`); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVecOfInPattern: (vec-of ...) in premise position is a computation
// unified against the matched value — here used to find tensors of an
// exact shape.
func TestVecOfInPattern(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort Type)
(sort IntVec (Vec i64))
(function RankedTensor (IntVec Type) Type)
(function F64 () Type)
(relation square2 (Type))
; match only 2x2 tensors: the vec-of premise computes the shape vector
; from bound variables/literals and unifies it with ?shape
(rule ((= ?t (RankedTensor ?shape ?e))
       (= ?shape (vec-of 2 2)))
      ((square2 ?t)))
(let a (RankedTensor (vec-of 2 2) (F64)))
(let b (RankedTensor (vec-of 2 3) (F64)))
(run 3)
(check (square2 a))
`)
	holds, err := p.Check(mustParseFacts(t, `(square2 b)`))
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Error("2x3 tensor classified as square2")
	}
}

// TestVecOfPatternWithVars: a vec-of premise whose elements are variables
// bound by earlier premises.
func TestVecOfPatternWithVars(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort Type)
(sort IntVec (Vec i64))
(function RankedTensor (IntVec Type) Type)
(function F64 () Type)
(function transposed (Type) Type)
(rule ((= ?t (RankedTensor ?shape ?e))
       (= ?r (vec-get ?shape 0))
       (= ?c (vec-get ?shape 1)))
      ((set (transposed ?t) (RankedTensor (vec-of ?c ?r) ?e))))
(let a (RankedTensor (vec-of 3 5) (F64)))
(run 3)
(check (= (transposed a) (RankedTensor (vec-of 5 3) (F64))))
`)
}

// TestExtractVariants: (extract e N) lists distinct alternatives of the
// class, cheapest first (Figure 1's "all equivalent programs" made
// visible).
func TestExtractVariants(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+paperRules+`
(let expr (Div (Mul (Var "a") (Num 2)) (Num 2)))
(run 20)
`)
	res, err := p.ExecuteString(`(extract expr 5)`)
	if err != nil {
		t.Fatal(err)
	}
	vs := res[0].Variants
	if len(vs) < 3 {
		t.Fatalf("variants = %d, want >= 3", len(vs))
	}
	if vs[0].Term.String() != `(Var "a")` {
		t.Errorf("cheapest variant = %s, want (Var \"a\")", vs[0].Term)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i].Cost < vs[i-1].Cost {
			t.Errorf("variants not sorted by cost: %d after %d", vs[i].Cost, vs[i-1].Cost)
		}
	}
	// The (a*2)/2 and (a<<1)/2 alternatives both appear among the Div
	// variants of the class... the root class contains Var, Num 1-mul
	// forms, and Div forms.
	joined := ""
	for _, v := range vs {
		joined += v.Term.String() + "\n"
	}
	if !strings.Contains(joined, "(Div") {
		t.Errorf("expected a Div-rooted variant:\n%s", joined)
	}
	// Single extract still works and matches the first variant.
	res2, err := p.ExecuteString(`(extract expr)`)
	if err != nil {
		t.Fatal(err)
	}
	if res2[0].Term.String() != vs[0].Term.String() {
		t.Errorf("extract (%s) != first variant (%s)", res2[0].Term, vs[0].Term)
	}
}

// TestPrintFunction renders table rows for debugging.
func TestPrintFunction(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(let a (Add (Num 1) (Num 2)))
(let b (Add (Num 3) (Num 4)))
`)
	res, err := p.ExecuteString(`(print-function Add 10)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(rows), rows)
	}
	if rows[0] != "(Add (Num 1) (Num 2)) -> (Add (Num 1) (Num 2))" {
		t.Errorf("row[0] = %q", rows[0])
	}
	// Limit applies.
	res, err = p.ExecuteString(`(print-function Add 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Rows) != 1 {
		t.Errorf("limited rows = %d, want 1", len(res[0].Rows))
	}
	if _, err := p.ExecuteString(`(print-function ghost)`); err == nil {
		t.Error("unknown function accepted")
	}
}

// TestProgramCloneIsolation: lets, sort aliases, rules, rows and unions a
// clone adds stay out of the program it was cloned from and out of other
// clones, and each clone continues from the original's state.
func TestProgramCloneIsolation(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+paperRules+`(let a (Mul (Var "x") (Num 2)))`)
	rules, rows := p.NumRules(), p.Graph().TotalRows()

	c1, c2 := p.Clone(), p.Clone()
	mustExec(t, c1, `
(sort Exprs (Vec Expr))
(rewrite (Add ?x ?y) (Add ?y ?x))
(let b (Add (Var "x") (Num 2)))
(union a b)
(run 3)`)
	if _, ok := c1.LookupLet("b"); !ok {
		t.Fatal("the clone lost its own let")
	}
	for name, o := range map[string]*Program{"original": p, "other clone": c2} {
		if _, ok := o.LookupLet("b"); ok {
			t.Errorf("%s sees the clone's let", name)
		}
		if _, ok := o.sortNames["Exprs"]; ok {
			t.Errorf("%s sees the clone's sort alias", name)
		}
		if o.NumRules() != rules {
			t.Errorf("%s has %d rules, want %d", name, o.NumRules(), rules)
		}
		if got := o.Graph().TotalRows(); got != rows {
			t.Errorf("%s has %d rows, want %d", name, got, rows)
		}
	}
	// The other clone continues from the original's state: it still
	// extracts a from the let the original bound.
	a, err := c2.EvalExpr(sexp.Symbol("a"))
	if err != nil {
		t.Fatal(err)
	}
	term, _, err := c2.Extractor().Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := term.String(); got != `(Mul (Var "x") (Num 2))` {
		t.Errorf("other clone extracts a as %s", got)
	}
}
