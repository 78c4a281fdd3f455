package egglog

import (
	"fmt"
	"maps"
	"slices"

	"dialegg/internal/egraph"
	"dialegg/internal/obs/journal"
	"dialegg/internal/sexp"
)

// Program is an egglog session: an e-graph plus the declarations, global
// let bindings, and rules accumulated by executed commands.
type Program struct {
	g     *egraph.EGraph
	prims *primRegistry

	// sortNames resolves surface sort names, including aliases declared
	// with (sort Name (Vec Elem)).
	sortNames map[string]*egraph.Sort

	// lets are global bindings introduced by (let name expr).
	lets map[string]egraph.Value

	// rules in declaration order; (run ...) saturates with all of them
	// (the default ruleset).
	rules []*egraph.Rule
	// rulesets holds rules filed under a named ruleset via :ruleset; they
	// only run through (run-schedule ...).
	rulesets map[string][]*egraph.Rule
	// rulesetOrder preserves declaration order of ruleset names.
	rulesetOrder []string
	// ruleCounter names anonymous rules deterministically.
	ruleCounter int

	// LastRun holds the report of the most recent (run ...).
	LastRun egraph.RunReport

	// RunDefaults is the run configuration (run ...) and (run-schedule ...)
	// commands start from; (run N) overrides its IterLimit. Zero values use
	// engine defaults.
	RunDefaults egraph.RunConfig

	// terms holds the action terms of the command being executed; see
	// topCompiler. Each session has its own.
	terms termBuf
}

// NewProgram returns an empty egglog session.
func NewProgram() *Program {
	g := egraph.New()
	p := &Program{
		g:         g,
		prims:     newPrimRegistry(),
		sortNames: make(map[string]*egraph.Sort),
		lets:      make(map[string]egraph.Value),
		rulesets:  make(map[string][]*egraph.Rule),
	}
	for _, s := range []*egraph.Sort{g.I64, g.F64, g.Str, g.Bool, g.Unit} {
		p.sortNames[s.Name] = s
	}
	return p
}

// Clone returns an independent session continuing from p's state: a
// clone of the e-graph (egraph.EGraph.Clone) plus copies of the sort
// names, global lets and rulesets, and an empty term buffer of its own
// (see topCompiler). Compiled rules and primitives are
// shared; they are immutable. Commands executed on the clone never affect
// p, and p must not be mutated while it is being cloned; concurrent
// Clones of one program are safe.
func (p *Program) Clone() *Program {
	c := *p
	c.terms = termBuf{}
	c.g = p.g.Clone()
	c.sortNames = maps.Clone(p.sortNames)
	c.lets = maps.Clone(p.lets)
	c.rules = slices.Clip(p.rules)
	c.rulesets = make(map[string][]*egraph.Rule, len(p.rulesets))
	for name, rs := range p.rulesets {
		c.rulesets[name] = slices.Clip(rs)
	}
	c.rulesetOrder = slices.Clip(p.rulesetOrder)
	return &c
}

// RecordHistory makes the session's e-graph keep its own journal from
// now on, so a journal attached to any later Clone replays from scratch
// (egraph.EGraph.RecordHistory). Call it before executing any command.
func (p *Program) RecordHistory() { p.g.RecordHistory() }

// Graph exposes the underlying e-graph (read-mostly; used by DialEgg and
// tests).
func (p *Program) Graph() *egraph.EGraph { return p.g }

// SetJournal attaches an event journal to the session's e-graph, opening a
// new graph segment labeled label. Attach before executing any commands so
// the segment captures every declaration and insertion. A nil writer is a
// no-op.
func (p *Program) SetJournal(w *journal.Writer, label string) { p.g.SetJournal(w, label) }

// NumRules reports how many rewrite/rule commands have been registered.
func (p *Program) NumRules() int { return len(p.rules) }

// LookupLet returns a global let binding.
func (p *Program) LookupLet(name string) (egraph.Value, bool) {
	v, ok := p.lets[name]
	return v, ok
}

// sortByName resolves a surface sort name.
func (p *Program) sortByName(name string) (*egraph.Sort, error) {
	if s, ok := p.sortNames[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("egglog: unknown sort %q", name)
}

// resolveSortNode resolves a sort reference node: either a symbol naming a
// sort or (Vec Elem).
func (p *Program) resolveSortNode(n *sexp.Node) (*egraph.Sort, error) {
	switch {
	case n.Kind == sexp.KindSymbol:
		return p.sortByName(n.Sym)
	case n.Kind == sexp.KindList && n.Head() == "Vec" && len(n.List) == 2:
		elem, err := p.resolveSortNode(n.List[1])
		if err != nil {
			return nil, err
		}
		return p.g.VecSortOf(elem), nil
	default:
		return nil, fmt.Errorf("egglog: invalid sort reference %s", n)
	}
}

// declareSort handles (sort Name) and (sort Name (Vec Elem)).
func (p *Program) declareSort(args []*sexp.Node) error {
	if len(args) == 0 || args[0].Kind != sexp.KindSymbol {
		return fmt.Errorf("egglog: sort expects a name")
	}
	name := args[0].Sym
	switch len(args) {
	case 1:
		s, err := p.g.AddEqSort(name)
		if err != nil {
			return err
		}
		p.sortNames[name] = s
		return nil
	case 2:
		s, err := p.resolveSortNode(args[1])
		if err != nil {
			return err
		}
		if _, dup := p.sortNames[name]; dup {
			return fmt.Errorf("egglog: sort %q already declared", name)
		}
		p.sortNames[name] = s
		return nil
	default:
		return fmt.Errorf("egglog: sort takes 1 or 2 arguments, got %d", len(args))
	}
}

// declareFunction handles
//
//	(function Name (ParamSorts...) OutSort [:cost N] [:unextractable])
func (p *Program) declareFunction(args []*sexp.Node) error {
	if len(args) < 3 || args[0].Kind != sexp.KindSymbol || args[1].Kind != sexp.KindList {
		return fmt.Errorf("egglog: function expects (function name (params) out ...)")
	}
	name := args[0].Sym
	if p.prims.isPrim(name) {
		return fmt.Errorf("egglog: function %q shadows a primitive", name)
	}
	params := make([]*egraph.Sort, len(args[1].List))
	for i, pn := range args[1].List {
		s, err := p.resolveSortNode(pn)
		if err != nil {
			return err
		}
		params[i] = s
	}
	out, err := p.resolveSortNode(args[2])
	if err != nil {
		return err
	}
	f := &egraph.Function{Name: name, Params: params, Out: out}
	for i := 3; i < len(args); i++ {
		switch {
		case args[i].IsSymbol(":cost"):
			if i+1 >= len(args) || args[i+1].Kind != sexp.KindInt {
				return fmt.Errorf("egglog: :cost expects an integer")
			}
			f.Cost = args[i+1].Int
			i++
		case args[i].IsSymbol(":unextractable"):
			f.Unextractable = true
		case args[i].IsSymbol(":merge"):
			if i+1 >= len(args) {
				return fmt.Errorf("egglog: :merge expects an expression")
			}
			if err := p.setMerge(f, args[i+1]); err != nil {
				return err
			}
			i++
		default:
			return fmt.Errorf("egglog: unknown function option %s", args[i])
		}
	}
	_, err = p.g.DeclareFunction(f)
	return err
}

// setMerge resolves a function's :merge expression. The engine evaluates
// the lattice merges analyses use — (min old new) and (max old new), in
// either argument order, on an i64 output — and every other expression is
// rejected rather than approximated. MergeName mirrors the choice
// symbolically so journals can reconstruct the merge function on replay.
func (p *Program) setMerge(f *egraph.Function, e *sexp.Node) error {
	args := e.Args()
	oldNew := len(args) == 2 && (args[0].IsSymbol("old") && args[1].IsSymbol("new") ||
		args[0].IsSymbol("new") && args[1].IsSymbol("old"))
	if oldNew && f.Out == p.g.I64 {
		switch e.Head() {
		case "min":
			f.Merge, f.MergeName = egraph.MergeMinI64, "min"
			return nil
		case "max":
			f.Merge, f.MergeName = egraph.MergeMaxI64, "max"
			return nil
		}
	}
	return fmt.Errorf("egglog: %sfunction %s (output %s): unsupported :merge %s; want (min old new) or (max old new) on an i64 output",
		srcPos(e), f.Name, f.Out.Name, e)
}

// declareRelation handles (relation Name (ParamSorts...)).
func (p *Program) declareRelation(args []*sexp.Node) error {
	if len(args) != 2 || args[0].Kind != sexp.KindSymbol || args[1].Kind != sexp.KindList {
		return fmt.Errorf("egglog: relation expects (relation name (params))")
	}
	params := make([]*egraph.Sort, len(args[1].List))
	for i, pn := range args[1].List {
		s, err := p.resolveSortNode(pn)
		if err != nil {
			return err
		}
		params[i] = s
	}
	_, err := p.g.DeclareFunction(&egraph.Function{
		Name:   args[0].Sym,
		Params: params,
		Out:    p.g.Unit,
	})
	return err
}

// declareDatatype handles
//
//	(datatype Name (Variant Sorts... [:cost N])...)
//
// which is sugar for a sort plus one constructor function per variant.
func (p *Program) declareDatatype(args []*sexp.Node) error {
	if len(args) == 0 || args[0].Kind != sexp.KindSymbol {
		return fmt.Errorf("egglog: datatype expects a name")
	}
	name := args[0].Sym
	s, err := p.g.AddEqSort(name)
	if err != nil {
		return err
	}
	p.sortNames[name] = s
	for _, v := range args[1:] {
		if v.Kind != sexp.KindList || len(v.List) == 0 || v.List[0].Kind != sexp.KindSymbol {
			return fmt.Errorf("egglog: invalid datatype variant %s", v)
		}
		f := &egraph.Function{Name: v.List[0].Sym, Out: s}
		for i := 1; i < len(v.List); i++ {
			if v.List[i].IsSymbol(":cost") {
				if i+1 >= len(v.List) || v.List[i+1].Kind != sexp.KindInt {
					return fmt.Errorf("egglog: :cost expects an integer")
				}
				f.Cost = v.List[i+1].Int
				i++
				continue
			}
			ps, err := p.resolveSortNode(v.List[i])
			if err != nil {
				return err
			}
			f.Params = append(f.Params, ps)
		}
		if _, err := p.g.DeclareFunction(f); err != nil {
			return err
		}
	}
	return nil
}

// topCompiler returns the compiler for one top-level command. Top-level
// expressions and actions compile exactly as rule actions do, with no
// pattern variables in scope, but take their terms from the session's
// buffer: the previous command's terms are dead by the time the next
// command compiles.
func (p *Program) topCompiler() ruleCompiler {
	p.terms.reset()
	return ruleCompiler{p: p, buf: &p.terms}
}

// compileExpr compiles a ground expression into an action term.
func (p *Program) compileExpr(n *sexp.Node) (*egraph.ATerm, error) {
	c := p.topCompiler()
	t, _, err := c.compileATerm(n, nil)
	if err != nil {
		return nil, fmt.Errorf("egglog: %w", err)
	}
	return t, nil
}

// EvalExpr evaluates a ground expression (no pattern variables) the way a
// rule action evaluates it: literals, global let names, function and
// primitive applications, and vec-of. Constructor applications insert
// e-nodes.
func (p *Program) EvalExpr(n *sexp.Node) (egraph.Value, error) {
	t, err := p.compileExpr(n)
	if err != nil {
		return egraph.Value{}, err
	}
	return p.evalTerm(t)
}

// evalTerm runs t as the one let of a top-level rule and returns the
// value the let binds.
func (p *Program) evalTerm(t *egraph.ATerm) (egraph.Value, error) {
	binds := []egraph.Value{{}}
	r := &egraph.Rule{Name: "top-level", Actions: []egraph.Action{&egraph.LetAction{Slot: 0, T: t}}, NumSlots: 1}
	err := p.g.ApplyActions(r, binds)
	return binds[0], err
}

// evalExprRaw is EvalExpr returning the original (uncanonicalized)
// identity of the root e-node: a global let returns its stored value, and
// a constructor application returns its table row's recorded output.
// Proof production needs these original IDs (the proof forest is indexed
// by them); everything else wants EvalExpr's canonical values.
func (p *Program) evalExprRaw(n *sexp.Node) (egraph.Value, error) {
	t, err := p.compileExpr(n)
	if err != nil {
		return egraph.Value{}, err
	}
	if t.Kind == egraph.ALit {
		return t.Lit, nil
	}
	return p.evalTerm(t)
}

// apply runs one top-level action command (set, unstable-cost or a bare
// function application) as a rule action with no bindings.
func (p *Program) apply(n *sexp.Node) error {
	c := p.topCompiler()
	act, err := c.compileAction(n)
	if err != nil {
		return fmt.Errorf("egglog: %w", err)
	}
	return p.g.ApplyActions(&egraph.Rule{Name: "top-level", Actions: []egraph.Action{act}}, nil)
}

// let evaluates expr and binds it to name (overwriting any previous
// binding, as egglog shadows).
func (p *Program) let(name string, expr *sexp.Node) (egraph.Value, error) {
	v, err := p.EvalExpr(expr)
	if err != nil {
		return egraph.Value{}, err
	}
	p.lets[name] = v
	return v, nil
}

// RunRules saturates the graph with every registered rule under cfg as
// given. The (run ...) and (run-schedule ...) commands start cfg from
// RunDefaults.
func (p *Program) RunRules(cfg egraph.RunConfig) egraph.RunReport {
	p.LastRun = p.g.Run(p.rules, cfg)
	return p.LastRun
}

// Extractor rebuilds the graph and returns a new extractor over it. One
// extractor serves every extraction, extraction report and blame analysis
// until the graph changes. Evaluate extraction roots with EvalExpr before
// calling it: evaluating a constructor application can insert e-nodes,
// which the extractor must see.
func (p *Program) Extractor() *egraph.Extractor {
	p.g.Rebuild()
	return egraph.NewExtractor(p.g)
}

// renderRows renders up to limit live rows of a function's table as
// "(f args...) -> out" strings, with arguments and eq-sort outputs shown
// as extracted terms where possible.
func (p *Program) renderRows(f *egraph.Function, limit int) []string {
	g := p.g
	ex := egraph.NewExtractor(g)
	var rows []string
	g.ForEachRow(f, func(args []egraph.Value, out egraph.Value) bool {
		if len(rows) >= limit {
			return false
		}
		var b []byte
		b = append(b, '(')
		b = append(b, f.Name...)
		for _, a := range args {
			term, _, terr := ex.Extract(a)
			if terr != nil {
				b = append(b, " ?"...)
				continue
			}
			b = append(b, ' ')
			b = append(b, term.String()...)
		}
		b = append(b, ')')
		if f.Out.Kind != egraph.KindUnit {
			b = append(b, " -> "...)
			term, _, terr := ex.Extract(out)
			if terr != nil {
				b = append(b, '?')
			} else {
				b = append(b, term.String()...)
			}
		}
		rows = append(rows, string(b))
		return true
	})
	return rows
}
