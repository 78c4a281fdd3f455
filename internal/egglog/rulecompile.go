package egglog

import (
	"fmt"

	"dialegg/internal/egraph"
	"dialegg/internal/sexp"
)

// identityPrim unifies two already-computed values; the compiler uses it to
// express variable/literal aliasing premises like (= ?a ?b).
var identityPrim = &egraph.Prim{
	Name: "=id=",
	Apply: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
		return args[0], true
	},
}

// ruleCompiler translates one surface rule into the engine rule IR.
type ruleCompiler struct {
	p *Program
	// names maps surface variable names to slots.
	names map[string]int
	// sorts records the inferred sort of each slot (nil while unknown).
	sorts []*egraph.Sort
	// premises accumulates query conjuncts in emission order; the planner
	// reorders them before execution.
	premises []egraph.Premise
	// buf, when set, supplies the action terms instead of the heap; see
	// Program.topCompiler.
	buf *termBuf
}

// termBuf hands out action terms and argument slices from backing arrays
// that reset makes reusable, so evaluating a top-level expression
// allocates no terms once the arrays have grown. A term must not be used
// after the next reset.
type termBuf struct {
	terms []egraph.ATerm
	args  []*egraph.ATerm
}

func (b *termBuf) reset() {
	b.terms = b.terms[:0]
	b.args = b.args[:0]
}

// term returns a pointer to a copy of t.
func (c *ruleCompiler) term(t egraph.ATerm) *egraph.ATerm {
	b := c.buf
	if b == nil {
		h := t
		return &h
	}
	if len(b.terms) == cap(b.terms) {
		// Terms already handed out stay in the old array.
		b.terms = make([]egraph.ATerm, 0, max(16, 2*cap(b.terms)))
	}
	b.terms = append(b.terms, t)
	return &b.terms[len(b.terms)-1]
}

// termArgs returns a slice for n argument terms.
func (c *ruleCompiler) termArgs(n int) []*egraph.ATerm {
	b := c.buf
	if b == nil {
		return make([]*egraph.ATerm, n)
	}
	if cap(b.args)-len(b.args) < n {
		b.args = make([]*egraph.ATerm, 0, max(32, 2*cap(b.args), n))
	}
	i := len(b.args)
	b.args = b.args[:i+n]
	return b.args[i : i+n : i+n]
}

func newRuleCompiler(p *Program) *ruleCompiler {
	return &ruleCompiler{p: p, names: make(map[string]int)}
}

func (c *ruleCompiler) freshSlot(sort *egraph.Sort) int {
	c.sorts = append(c.sorts, sort)
	return len(c.sorts) - 1
}

// slotFor returns the slot of a named variable, creating it on first use.
func (c *ruleCompiler) slotFor(name string, sort *egraph.Sort) (int, error) {
	if s, ok := c.names[name]; ok {
		if err := c.unifySlotSort(s, sort); err != nil {
			return 0, fmt.Errorf("variable %s: %w", name, err)
		}
		return s, nil
	}
	s := c.freshSlot(sort)
	c.names[name] = s
	return s, nil
}

func (c *ruleCompiler) unifySlotSort(slot int, sort *egraph.Sort) error {
	if sort == nil {
		return nil
	}
	if c.sorts[slot] == nil {
		c.sorts[slot] = sort
		return nil
	}
	if c.sorts[slot] != sort {
		return fmt.Errorf("sort mismatch: %s vs %s", c.sorts[slot], sort)
	}
	return nil
}

// isVarSymbol reports whether a symbol is a pattern variable. Variables are
// '?'-prefixed (the paper's style); plain symbols fall back to variables
// when they name neither a global let, a declared function, nor a builtin
// boolean (modern egglog style).
func (c *ruleCompiler) isVarSymbol(sym string) bool {
	if sym == "" {
		return false
	}
	if sym[0] == '?' || sym == "_" {
		return true
	}
	if sym == "true" || sym == "false" {
		return false
	}
	if _, ok := c.p.lets[sym]; ok {
		return false
	}
	if _, ok := c.p.g.FunctionByName(sym); ok {
		return false
	}
	return !c.p.prims.isPrim(sym)
}

func isWildcard(sym string) bool { return sym == "?" || sym == "_" }

// --- query-side compilation -------------------------------------------------

// compilePattern compiles a pattern expression in premise position into an
// atom, emitting the table/eval premises needed to establish it. expected
// may be nil when the context imposes no sort.
func (c *ruleCompiler) compilePattern(n *sexp.Node, expected *egraph.Sort) (egraph.Atom, *egraph.Sort, error) {
	g := c.p.g
	switch n.Kind {
	case sexp.KindInt:
		if err := checkLitSort(expected, egraph.KindI64, n); err != nil {
			return egraph.Atom{}, nil, err
		}
		return egraph.LitAtom(egraph.I64Value(g.I64, n.Int)), g.I64, nil
	case sexp.KindFloat:
		if err := checkLitSort(expected, egraph.KindF64, n); err != nil {
			return egraph.Atom{}, nil, err
		}
		return egraph.LitAtom(egraph.F64Value(g.F64, n.Float)), g.F64, nil
	case sexp.KindString:
		if err := checkLitSort(expected, egraph.KindString, n); err != nil {
			return egraph.Atom{}, nil, err
		}
		return egraph.LitAtom(g.InternString(n.Str)), g.Str, nil
	case sexp.KindSymbol:
		switch {
		case n.Sym == "true" || n.Sym == "false":
			if err := checkLitSort(expected, egraph.KindBool, n); err != nil {
				return egraph.Atom{}, nil, err
			}
			return egraph.LitAtom(egraph.BoolValue(g.Bool, n.Sym == "true")), g.Bool, nil
		case isWildcard(n.Sym):
			slot := c.freshSlot(expected)
			return egraph.VarAtom(slot), expected, nil
		case c.isVarSymbol(n.Sym):
			slot, err := c.slotFor(n.Sym, expected)
			if err != nil {
				return egraph.Atom{}, nil, err
			}
			return egraph.VarAtom(slot), c.sorts[slot], nil
		default:
			if v, ok := c.p.lets[n.Sym]; ok {
				if expected != nil && !v.HasSort(expected) {
					return egraph.Atom{}, nil, fmt.Errorf("let %s has sort %s, want %s", n.Sym, g.SortOf(v), expected)
				}
				return egraph.LitAtom(v), g.SortOf(v), nil
			}
			if f, ok := g.FunctionByName(n.Sym); ok && f.Arity() == 0 {
				// Nullary constructor used bare.
				return c.compileAppPattern(sexp.List(sexp.Symbol(n.Sym)), nil, expected)
			}
			return egraph.Atom{}, nil, fmt.Errorf("cannot use %q in a pattern", n.Sym)
		}
	case sexp.KindList:
		return c.compileAppPattern(n, nil, expected)
	default:
		return egraph.Atom{}, nil, fmt.Errorf("invalid pattern %s", n)
	}
}

func checkLitSort(expected *egraph.Sort, kind egraph.SortKind, n *sexp.Node) error {
	if expected != nil && expected.Kind != kind {
		return fmt.Errorf("literal %s has kind %s, want sort %s", n, kind, expected)
	}
	return nil
}

// compileAppPattern compiles an application pattern, emitting its premise.
// When out is non-nil the premise unifies its output with that atom;
// otherwise a fresh slot is allocated.
func (c *ruleCompiler) compileAppPattern(n *sexp.Node, out *egraph.Atom, expected *egraph.Sort) (egraph.Atom, *egraph.Sort, error) {
	g := c.p.g
	head := n.Head()
	if head == "" {
		return egraph.Atom{}, nil, fmt.Errorf("invalid application %s", n)
	}

	if head == "vec-of" {
		return c.compileVecOfPattern(n, out, expected)
	}

	if f, ok := g.FunctionByName(head); ok {
		if len(n.Args()) != f.Arity() {
			return egraph.Atom{}, nil, fmt.Errorf("%s expects %d arguments, got %d", head, f.Arity(), len(n.Args()))
		}
		if expected != nil && f.Out != expected && f.Out.Kind != egraph.KindUnit {
			return egraph.Atom{}, nil, fmt.Errorf("%s yields %s, want %s", head, f.Out, expected)
		}
		args := make([]egraph.Atom, f.Arity())
		for i, an := range n.Args() {
			a, _, err := c.compilePattern(an, f.Params[i])
			if err != nil {
				return egraph.Atom{}, nil, err
			}
			args[i] = a
		}
		outAtom, err := c.outAtom(out, f.Out)
		if err != nil {
			return egraph.Atom{}, nil, err
		}
		c.premises = append(c.premises, &egraph.TablePremise{Fn: f, Args: args, Out: outAtom})
		return outAtom, f.Out, nil
	}

	if c.p.prims.isPrim(head) {
		args := make([]egraph.Atom, len(n.Args()))
		sorts := make([]*egraph.Sort, len(n.Args()))
		for i, an := range n.Args() {
			a, s, err := c.compilePattern(an, nil)
			if err != nil {
				return egraph.Atom{}, nil, err
			}
			if s == nil {
				return egraph.Atom{}, nil, fmt.Errorf("argument %d of primitive %s has unknown sort; bind the variable in an earlier premise", i, head)
			}
			args[i] = a
			sorts[i] = s
		}
		prim, outSort, err := c.p.prims.resolve(g, head, sorts)
		if err != nil {
			return egraph.Atom{}, nil, err
		}
		if expected != nil && outSort != expected {
			return egraph.Atom{}, nil, fmt.Errorf("primitive %s yields %s, want %s", head, outSort, expected)
		}
		outAtom, err := c.outAtom(out, outSort)
		if err != nil {
			return egraph.Atom{}, nil, err
		}
		c.premises = append(c.premises, &egraph.EvalPremise{Prim: prim, Args: args, Out: outAtom})
		return outAtom, outSort, nil
	}

	return egraph.Atom{}, nil, fmt.Errorf("unknown function or primitive %q", head)
}

// compileVecOfPattern treats (vec-of e...) in a premise as a computation:
// once the elements are bound, intern the vector and unify.
func (c *ruleCompiler) compileVecOfPattern(n *sexp.Node, out *egraph.Atom, expected *egraph.Sort) (egraph.Atom, *egraph.Sort, error) {
	g := c.p.g
	var elemExpected *egraph.Sort
	if expected != nil {
		if expected.Kind != egraph.KindVec {
			return egraph.Atom{}, nil, fmt.Errorf("vec-of used where %s expected", expected)
		}
		elemExpected = expected.Elem
	}
	args := make([]egraph.Atom, len(n.Args()))
	var elemSort *egraph.Sort = elemExpected
	for i, an := range n.Args() {
		a, s, err := c.compilePattern(an, elemSort)
		if err != nil {
			return egraph.Atom{}, nil, err
		}
		if elemSort == nil {
			elemSort = s
		}
		args[i] = a
	}
	if elemSort == nil {
		return egraph.Atom{}, nil, fmt.Errorf("cannot infer element sort of %s", n)
	}
	vecSort := g.VecSortOf(elemSort)
	outAtom, err := c.outAtom(out, vecSort)
	if err != nil {
		return egraph.Atom{}, nil, err
	}
	prim := &egraph.Prim{
		Name: "vec-of",
		Apply: func(g *egraph.EGraph, vals []egraph.Value) (egraph.Value, bool) {
			return g.InternVec(vecSort, vals), true
		},
	}
	c.premises = append(c.premises, &egraph.EvalPremise{Prim: prim, Args: args, Out: outAtom})
	return outAtom, vecSort, nil
}

func (c *ruleCompiler) outAtom(out *egraph.Atom, sort *egraph.Sort) (egraph.Atom, error) {
	if out == nil {
		return egraph.VarAtom(c.freshSlot(sort)), nil
	}
	if out.Kind == egraph.AtomVar {
		if err := c.unifySlotSort(out.Slot, sort); err != nil {
			return egraph.Atom{}, err
		}
	} else if !out.Lit.HasSort(sort) && sort.Kind != egraph.KindUnit {
		return egraph.Atom{}, fmt.Errorf("output literal sort %s does not match %s", c.p.g.SortOf(out.Lit), sort)
	}
	return *out, nil
}

// compileFact compiles one premise of a rule query.
func (c *ruleCompiler) compileFact(n *sexp.Node) error {
	if n.Kind == sexp.KindList && n.Head() == "=" {
		if len(n.Args()) != 2 {
			return fmt.Errorf("= expects 2 arguments")
		}
		return c.compileEquality(n.Args()[0], n.Args()[1])
	}
	// A bare application: for bool-valued primitives this is a guard; for
	// relations and constructors it asserts membership.
	atom, sort, err := c.compilePattern(n, nil)
	if err != nil {
		return err
	}
	if sort != nil && sort.Kind == egraph.KindBool {
		// Rewrite the just-emitted premise's output to demand true.
		last := c.premises[len(c.premises)-1]
		if ep, ok := last.(*egraph.EvalPremise); ok && ep.Out == atom {
			ep.Out = egraph.LitAtom(egraph.BoolValue(c.p.g.Bool, true))
		}
	}
	return nil
}

func (c *ruleCompiler) compileEquality(a, b *sexp.Node) error {
	// Prefer to compile an application side with the other side as its
	// output, avoiding an identity premise.
	aApp := a.Kind == sexp.KindList
	bApp := b.Kind == sexp.KindList
	switch {
	case bApp:
		atomA, sortA, err := c.compileAtomOnly(a)
		if err != nil {
			return err
		}
		if atomA == nil {
			// a is itself an application; compile b first, then a into it.
			atomB, sortB, err2 := c.compilePattern(b, nil)
			if err2 != nil {
				return err2
			}
			_, _, err2 = c.compileAppPattern(a, &atomB, sortB)
			return err2
		}
		_, _, err = c.compileAppPattern(b, atomA, sortA)
		return err
	case aApp:
		return c.compileEquality(b, a)
	default:
		// Both are atoms (vars, literals, lets).
		atomA, sortA, err := c.compilePattern(a, nil)
		if err != nil {
			return err
		}
		atomB, _, err := c.compilePattern(b, sortA)
		if err != nil {
			return err
		}
		c.premises = append(c.premises, &egraph.EvalPremise{
			Prim: identityPrim,
			Args: []egraph.Atom{atomA},
			Out:  atomB,
		})
		return nil
	}
}

// compileAtomOnly compiles a into an atom if it is not an application;
// returns nil atom for applications.
func (c *ruleCompiler) compileAtomOnly(a *sexp.Node) (*egraph.Atom, *egraph.Sort, error) {
	if a.Kind == sexp.KindList {
		return nil, nil, nil
	}
	atom, sort, err := c.compilePattern(a, nil)
	if err != nil {
		return nil, nil, err
	}
	return &atom, sort, nil
}

// planPremises orders premises so every EvalPremise runs only after its
// argument variables are bound, preferring more-constrained table premises
// first.
func (c *ruleCompiler) planPremises() ([]egraph.Premise, error) {
	remaining := append([]egraph.Premise(nil), c.premises...)
	bound := make([]bool, len(c.sorts))
	var ordered []egraph.Premise

	atomBound := func(a egraph.Atom) bool {
		return a.Kind == egraph.AtomLit || bound[a.Slot]
	}
	bindAtom := func(a egraph.Atom) {
		if a.Kind == egraph.AtomVar {
			bound[a.Slot] = true
		}
	}

	for len(remaining) > 0 {
		bestIdx := -1
		bestScore := -1
		for i, pr := range remaining {
			switch p := pr.(type) {
			case *egraph.EvalPremise:
				ready := true
				for _, a := range p.Args {
					if !atomBound(a) {
						ready = false
						break
					}
				}
				if ready {
					// Evals are cheap filters; run them as early as possible.
					bestIdx, bestScore = i, 1<<30
				}
			case *egraph.TablePremise:
				score := 0
				for _, a := range p.Args {
					if atomBound(a) {
						score++
					}
				}
				if atomBound(p.Out) {
					score++
				}
				if score > bestScore {
					bestIdx, bestScore = i, score
				}
			}
			if bestScore == 1<<30 {
				break
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("cannot order premises: a primitive computation depends on unbound variables")
		}
		chosen := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		ordered = append(ordered, chosen)
		switch p := chosen.(type) {
		case *egraph.EvalPremise:
			bindAtom(p.Out)
		case *egraph.TablePremise:
			for _, a := range p.Args {
				bindAtom(a)
			}
			bindAtom(p.Out)
		}
	}
	return ordered, nil
}

// --- action-side compilation -------------------------------------------------

// compileATerm compiles an expression in action position. expected may be
// nil when the context imposes no sort; otherwise the term must have it.
func (c *ruleCompiler) compileATerm(n *sexp.Node, expected *egraph.Sort) (*egraph.ATerm, *egraph.Sort, error) {
	t, sort, err := c.compileATermAny(n, expected)
	if err == nil && expected != nil && sort != expected {
		return nil, nil, fmt.Errorf("%s has sort %s, want %s", n, sort, expected)
	}
	return t, sort, err
}

// compileATermAny is compileATerm without the final sort check; expected
// still types vec-of elements and variables of unknown sort.
func (c *ruleCompiler) compileATermAny(n *sexp.Node, expected *egraph.Sort) (*egraph.ATerm, *egraph.Sort, error) {
	g := c.p.g
	switch n.Kind {
	case sexp.KindInt:
		return c.term(egraph.ATerm{Kind: egraph.ALit, Lit: egraph.I64Value(g.I64, n.Int)}), g.I64, nil
	case sexp.KindFloat:
		return c.term(egraph.ATerm{Kind: egraph.ALit, Lit: egraph.F64Value(g.F64, n.Float)}), g.F64, nil
	case sexp.KindString:
		return c.term(egraph.ATerm{Kind: egraph.ALit, Lit: g.InternString(n.Str)}), g.Str, nil
	case sexp.KindSymbol:
		switch {
		case n.Sym == "true" || n.Sym == "false":
			return c.term(egraph.ATerm{Kind: egraph.ALit, Lit: egraph.BoolValue(g.Bool, n.Sym == "true")}), g.Bool, nil
		case c.isVarSymbol(n.Sym):
			slot, ok := c.names[n.Sym]
			if !ok {
				return nil, nil, fmt.Errorf("unbound variable %s in action", n.Sym)
			}
			if err := c.unifySlotSort(slot, expected); err != nil {
				return nil, nil, err
			}
			return c.term(egraph.ATerm{Kind: egraph.AVar, Slot: slot}), c.sorts[slot], nil
		default:
			if v, ok := c.p.lets[n.Sym]; ok {
				return c.term(egraph.ATerm{Kind: egraph.ALit, Lit: v}), g.SortOf(v), nil
			}
			if f, ok := g.FunctionByName(n.Sym); ok && f.Arity() == 0 {
				return c.term(egraph.ATerm{Kind: egraph.AApp, Fn: f}), f.Out, nil
			}
			return nil, nil, fmt.Errorf("unbound name %q in action", n.Sym)
		}
	case sexp.KindList:
		head := n.Head()
		if head == "vec-of" {
			return c.compileVecOfATerm(n, expected)
		}
		if f, ok := g.FunctionByName(head); ok {
			args, err := c.compileArgs(f, n)
			if err != nil {
				return nil, nil, err
			}
			return c.term(egraph.ATerm{Kind: egraph.AApp, Fn: f, Args: args}), f.Out, nil
		}
		if c.p.prims.isPrim(head) {
			args := c.termArgs(len(n.Args()))
			sorts := make([]*egraph.Sort, len(n.Args()))
			for i, an := range n.Args() {
				t, s, err := c.compileATerm(an, nil)
				if err != nil {
					return nil, nil, err
				}
				args[i] = t
				sorts[i] = s
			}
			prim, outSort, err := c.p.prims.resolve(g, head, sorts)
			if err != nil {
				return nil, nil, err
			}
			return c.term(egraph.ATerm{Kind: egraph.APrim, Prim: prim, Args: args}), outSort, nil
		}
		return nil, nil, fmt.Errorf("unknown function or primitive %q in action", head)
	default:
		return nil, nil, fmt.Errorf("invalid action expression %s", n)
	}
}

// compileArgs compiles the arguments of n, an application of f.
func (c *ruleCompiler) compileArgs(f *egraph.Function, n *sexp.Node) ([]*egraph.ATerm, error) {
	if len(n.Args()) != f.Arity() {
		return nil, fmt.Errorf("%s expects %d arguments, got %d", f.Name, f.Arity(), len(n.Args()))
	}
	args := c.termArgs(f.Arity())
	for i, an := range n.Args() {
		t, _, err := c.compileATerm(an, f.Params[i])
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	return args, nil
}

func (c *ruleCompiler) compileVecOfATerm(n *sexp.Node, expected *egraph.Sort) (*egraph.ATerm, *egraph.Sort, error) {
	var elemSort *egraph.Sort
	if expected != nil {
		if expected.Kind != egraph.KindVec {
			return nil, nil, fmt.Errorf("vec-of used where %s expected", expected)
		}
		elemSort = expected.Elem
	}
	args := c.termArgs(len(n.Args()))
	for i, an := range n.Args() {
		t, s, err := c.compileATerm(an, elemSort)
		if err != nil {
			return nil, nil, err
		}
		if elemSort == nil {
			elemSort = s
		}
		args[i] = t
	}
	vecSort := expected
	if vecSort == nil {
		if elemSort == nil {
			return nil, nil, fmt.Errorf("cannot infer element sort of %s", n)
		}
		vecSort = c.p.g.VecSortOf(elemSort)
	}
	return c.term(egraph.ATerm{Kind: egraph.AVec, VecSort: vecSort, Args: args}), vecSort, nil
}

// compileAction compiles one action form.
func (c *ruleCompiler) compileAction(n *sexp.Node) (egraph.Action, error) {
	if n.Kind != sexp.KindList {
		return nil, fmt.Errorf("invalid action %s", n)
	}
	switch n.Head() {
	case "union":
		if len(n.Args()) != 2 {
			return nil, fmt.Errorf("union expects 2 arguments")
		}
		a, sa, err := c.compileATerm(n.Args()[0], nil)
		if err != nil {
			return nil, err
		}
		b, _, err := c.compileATerm(n.Args()[1], sa)
		if err != nil {
			return nil, err
		}
		return &egraph.UnionAction{A: a, B: b}, nil
	case "set", "unstable-cost":
		head := n.Head()
		if len(n.Args()) != 2 || n.Args()[0].Kind != sexp.KindList {
			return nil, fmt.Errorf("%s expects (%s (f args...) value)", head, head)
		}
		call := n.Args()[0]
		f, ok := c.p.g.FunctionByName(call.Head())
		if !ok {
			return nil, fmt.Errorf("%s: unknown function %q", head, call.Head())
		}
		args, err := c.compileArgs(f, call)
		if err != nil {
			return nil, err
		}
		if head == "set" {
			out, _, err := c.compileATerm(n.Args()[1], f.Out)
			if err != nil {
				return nil, err
			}
			return &egraph.SetAction{Fn: f, Args: args, Out: out}, nil
		}
		cost, _, err := c.compileATerm(n.Args()[1], c.p.g.I64)
		if err != nil {
			return nil, err
		}
		return &egraph.CostAction{Fn: f, Args: args, Cost: cost}, nil
	case "let":
		if len(n.Args()) != 2 || n.Args()[0].Kind != sexp.KindSymbol {
			return nil, fmt.Errorf("let expects (let name expr)")
		}
		t, sort, err := c.compileATerm(n.Args()[1], nil)
		if err != nil {
			return nil, err
		}
		slot := c.freshSlot(sort)
		c.names[n.Args()[0].Sym] = slot
		return &egraph.LetAction{Slot: slot, T: t}, nil
	case "delete", "panic", "extract":
		return nil, fmt.Errorf("action %q is not supported", n.Head())
	default:
		t, _, err := c.compileATerm(n, nil)
		if err != nil {
			return nil, err
		}
		return &egraph.InsertAction{T: t}, nil
	}
}

// --- rule assembly ------------------------------------------------------------

// compileRule builds a rule from premise facts and action forms.
func (p *Program) compileRule(name string, facts, actions []*sexp.Node) (*egraph.Rule, error) {
	c := newRuleCompiler(p)
	for _, f := range facts {
		if err := c.compileFact(f); err != nil {
			return nil, fmt.Errorf("egglog: rule %s: %w", name, err)
		}
	}
	ordered, err := c.planPremises()
	if err != nil {
		return nil, fmt.Errorf("egglog: rule %s: %w", name, err)
	}
	var acts []egraph.Action
	for _, a := range actions {
		act, err := c.compileAction(a)
		if err != nil {
			return nil, fmt.Errorf("egglog: rule %s: %w", name, err)
		}
		acts = append(acts, act)
	}
	return &egraph.Rule{
		Name:     name,
		Premises: ordered,
		Actions:  acts,
		NumSlots: len(c.sorts),
	}, nil
}

// compileRewrite builds the rule for (rewrite lhs rhs [:when (facts...)]).
func (p *Program) compileRewrite(name string, lhs, rhs *sexp.Node, when []*sexp.Node) (*egraph.Rule, error) {
	c := newRuleCompiler(p)
	if lhs.Kind != sexp.KindList {
		return nil, fmt.Errorf("egglog: rewrite %s: left-hand side must be an application", name)
	}
	rootAtom, rootSort, err := c.compileAppPattern(lhs, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("egglog: rewrite %s: %w", name, err)
	}
	for _, f := range when {
		if err := c.compileFact(f); err != nil {
			return nil, fmt.Errorf("egglog: rewrite %s: %w", name, err)
		}
	}
	ordered, err := c.planPremises()
	if err != nil {
		return nil, fmt.Errorf("egglog: rewrite %s: %w", name, err)
	}
	rhsTerm, _, err := c.compileATerm(rhs, rootSort)
	if err != nil {
		return nil, fmt.Errorf("egglog: rewrite %s: %w", name, err)
	}
	rootTerm := &egraph.ATerm{Kind: egraph.AVar, Slot: rootAtom.Slot}
	return &egraph.Rule{
		Name:     name,
		Premises: ordered,
		Actions:  []egraph.Action{&egraph.UnionAction{A: rootTerm, B: rhsTerm}},
		NumSlots: len(c.sorts),
	}, nil
}
