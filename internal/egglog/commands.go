package egglog

import (
	"fmt"

	"dialegg/internal/egraph"
	"dialegg/internal/obs"
	"dialegg/internal/sched"
	"dialegg/internal/sexp"
)

// Result is the outcome of one executed command that produces output
// (run/extract/check); declaration commands produce no Result.
type Result struct {
	// Command is the head symbol of the command that produced this result.
	Command string
	// Term is the extracted term for extract commands.
	Term *sexp.Node
	// Cost is the extracted term's cost for extract commands.
	Cost int64
	// Report is the saturation report for run commands.
	Report egraph.RunReport
	// Holds is the outcome of a check command.
	Holds bool
	// Explanation is the rendered proof for explain commands.
	Explanation string
	// Variants holds the alternatives for (extract e N), cheapest first.
	Variants []egraph.Variant
	// Rows holds rendered table rows for print-function commands.
	Rows []string
}

// ExecuteString parses and executes egglog source text.
func (p *Program) ExecuteString(src string) ([]Result, error) {
	nodes, err := sexp.Parse(src)
	if err != nil {
		return nil, err
	}
	return p.Execute(nodes)
}

// Execute runs a sequence of parsed commands, returning the results of
// run/extract/check commands in order.
func (p *Program) Execute(nodes []*sexp.Node) ([]Result, error) {
	var results []Result
	for _, n := range nodes {
		r, err := p.executeOne(n)
		if err != nil {
			if n.Line > 0 {
				return results, fmt.Errorf("%d:%d: %w", n.Line, n.Col, err)
			}
			return results, err
		}
		if r != nil {
			results = append(results, *r)
		}
	}
	return results, nil
}

func (p *Program) executeOne(n *sexp.Node) (*Result, error) {
	if n.Kind != sexp.KindList || n.Head() == "" {
		return nil, fmt.Errorf("egglog: invalid command %s", n)
	}
	args := n.Args()
	head := n.Head()
	// Heavyweight commands get a pipeline-lane trace span; declaration and
	// expression commands are too cheap and numerous to be worth recording.
	switch head {
	case "run", "run-schedule", "extract", "check", "query", "explain":
		if rec := p.RunDefaults.Recorder; rec.Enabled() {
			rec.SetLaneName(obs.LanePipeline, "pipeline")
			defer rec.Span(obs.LanePipeline, "command", head)()
		}
	}
	switch head {
	case "sort":
		return nil, p.declareSort(args)
	case "datatype":
		return nil, p.declareDatatype(args)
	case "function", "constructor":
		return nil, p.declareFunction(args)
	case "relation":
		return nil, p.declareRelation(args)

	case "let":
		if len(args) != 2 || args[0].Kind != sexp.KindSymbol {
			return nil, fmt.Errorf("egglog: let expects (let name expr)")
		}
		_, err := p.Let(args[0].Sym, args[1])
		return nil, err

	case "union":
		if len(args) != 2 {
			return nil, fmt.Errorf("egglog: union expects 2 arguments")
		}
		a, err := p.EvalExpr(args[0])
		if err != nil {
			return nil, err
		}
		b, err := p.EvalExpr(args[1])
		if err != nil {
			return nil, err
		}
		if _, err := p.g.Union(a, b); err != nil {
			return nil, err
		}
		p.g.Rebuild()
		return nil, nil

	case "set":
		if len(args) != 2 || args[0].Kind != sexp.KindList {
			return nil, fmt.Errorf("egglog: set expects (set (f args...) value)")
		}
		call := args[0]
		f, ok := p.g.FunctionByName(call.Head())
		if !ok {
			return nil, fmt.Errorf("egglog: set: unknown function %q", call.Head())
		}
		vals := make([]egraph.Value, len(call.Args()))
		for i, a := range call.Args() {
			v, err := p.EvalExpr(a)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out, err := p.EvalExpr(args[1])
		if err != nil {
			return nil, err
		}
		return nil, p.g.Set(f, vals, out)

	case "unstable-cost":
		if len(args) != 2 || args[0].Kind != sexp.KindList {
			return nil, fmt.Errorf("egglog: unstable-cost expects (unstable-cost (f args...) cost)")
		}
		call := args[0]
		f, ok := p.g.FunctionByName(call.Head())
		if !ok {
			return nil, fmt.Errorf("egglog: unstable-cost: unknown function %q", call.Head())
		}
		vals := make([]egraph.Value, len(call.Args()))
		for i, a := range call.Args() {
			v, err := p.EvalExpr(a)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		cost, err := p.EvalExpr(args[1])
		if err != nil {
			return nil, err
		}
		if cost.Sort.Kind != egraph.KindI64 {
			return nil, fmt.Errorf("egglog: unstable-cost expects an i64 cost")
		}
		return nil, p.g.SetNodeCost(f, vals, cost.AsI64())

	case "rewrite", "birewrite":
		if len(args) < 2 {
			return nil, fmt.Errorf("egglog: %s expects lhs and rhs", head)
		}
		name := fmt.Sprintf("%s#%d", head, p.ruleCounter)
		ruleset := ""
		var when []*sexp.Node
		for i := 2; i < len(args); i++ {
			switch {
			case args[i].IsSymbol(":when") && i+1 < len(args) && args[i+1].Kind == sexp.KindList:
				when = append(when, args[i+1].List...)
				i++
			case args[i].IsSymbol(":name") && i+1 < len(args):
				name = args[i+1].Str
				i++
			case args[i].IsSymbol(":ruleset") && i+1 < len(args) && args[i+1].Kind == sexp.KindSymbol:
				ruleset = args[i+1].Sym
				i++
			default:
				return nil, fmt.Errorf("egglog: unknown %s option %s", head, args[i])
			}
		}
		p.ruleCounter++
		r, err := p.compileRewrite(name, args[0], args[1], when)
		if err != nil {
			return nil, err
		}
		if err := p.addRule(r, ruleset); err != nil {
			return nil, err
		}
		if head == "birewrite" {
			rev, err := p.compileRewrite(name+"-rev", args[1], args[0], when)
			if err != nil {
				return nil, err
			}
			if err := p.addRule(rev, ruleset); err != nil {
				return nil, err
			}
		}
		return nil, nil

	case "rule":
		if len(args) < 2 || args[0].Kind != sexp.KindList || args[1].Kind != sexp.KindList {
			return nil, fmt.Errorf("egglog: rule expects (rule (facts...) (actions...))")
		}
		name := fmt.Sprintf("rule#%d", p.ruleCounter)
		ruleset := ""
		for i := 2; i < len(args); i++ {
			switch {
			case args[i].IsSymbol(":name") && i+1 < len(args):
				name = args[i+1].Str
				i++
			case args[i].IsSymbol(":ruleset") && i+1 < len(args) && args[i+1].Kind == sexp.KindSymbol:
				ruleset = args[i+1].Sym
				i++
			default:
				return nil, fmt.Errorf("egglog: unknown rule option %s", args[i])
			}
		}
		p.ruleCounter++
		r, err := p.compileRule(name, args[0].List, args[1].List)
		if err != nil {
			return nil, err
		}
		if err := p.addRule(r, ruleset); err != nil {
			return nil, err
		}
		return nil, nil

	case "run":
		cfg := p.RunDefaults
		if len(args) >= 1 && args[0].Kind == sexp.KindInt {
			cfg.IterLimit = int(args[0].Int)
		}
		report := p.RunRules(cfg)
		if report.Err != nil {
			return nil, report.Err
		}
		return &Result{Command: "run", Report: report}, nil

	case "extract":
		if len(args) < 1 {
			return nil, fmt.Errorf("egglog: extract expects an expression")
		}
		v, err := p.EvalExpr(args[0])
		if err != nil {
			return nil, err
		}
		ex := p.Extractor()
		if len(args) == 2 && args[1].Kind == sexp.KindInt {
			variants, err := ex.ExtractVariants(v, int(args[1].Int))
			if err != nil {
				return nil, err
			}
			r := &Result{Command: "extract", Variants: variants}
			if len(variants) > 0 {
				r.Term, r.Cost = variants[0].Term, variants[0].Cost
			}
			return r, nil
		}
		term, cost, err := ex.Extract(v)
		if err != nil {
			return nil, err
		}
		return &Result{Command: "extract", Term: term, Cost: cost}, nil

	case "check":
		holds, err := p.Check(args)
		if err != nil {
			return nil, err
		}
		if !holds {
			return nil, fmt.Errorf("egglog: check failed: %s", n)
		}
		return &Result{Command: "check", Holds: holds}, nil

	case "query":
		// Like check, but reports rather than fails.
		holds, err := p.Check(args)
		if err != nil {
			return nil, err
		}
		return &Result{Command: "query", Holds: holds}, nil

	case "set-option":
		// Accepted options: (set-option enable-proofs true) turns on
		// union-provenance recording for (explain ...).
		if len(args) == 2 && args[0].IsSymbol("enable-proofs") && args[1].IsSymbol("true") {
			p.g.EnableExplanations()
			return nil, nil
		}
		return nil, fmt.Errorf("egglog: unsupported set-option %s", n)

	case "explain":
		if len(args) != 2 {
			return nil, fmt.Errorf("egglog: explain expects two expressions")
		}
		// Proofs are anchored at the *original* e-node identities (proof
		// forest nodes), so resolve without canonicalization.
		a, err := p.EvalExprRaw(args[0])
		if err != nil {
			return nil, err
		}
		b, err := p.EvalExprRaw(args[1])
		if err != nil {
			return nil, err
		}
		ex := p.Extractor()
		steps, err := p.g.Explain(a, b)
		if err != nil {
			return nil, err
		}
		return &Result{Command: "explain", Explanation: p.g.FormatExplanation(ex, steps)}, nil

	case "ruleset":
		if len(args) != 1 || args[0].Kind != sexp.KindSymbol {
			return nil, fmt.Errorf("egglog: ruleset expects a name")
		}
		return nil, p.DeclareRuleset(args[0].Sym)

	case "run-schedule":
		// A trailing (:scheduler <spec>) option selects the rule-scheduling
		// strategy for this schedule only; the spec uses the CLI grammar
		// ("backoff:threshold=500") as a symbol or string.
		cfg := p.RunDefaults
		items := args
		for i := 0; i < len(items); i++ {
			if !items[i].IsSymbol(":scheduler") {
				continue
			}
			if i+1 >= len(items) {
				return nil, fmt.Errorf("egglog: %s:scheduler expects a spec", srcPos(items[i]))
			}
			var spec string
			switch v := items[i+1]; v.Kind {
			case sexp.KindSymbol:
				spec = v.Sym
			case sexp.KindString:
				spec = v.Str
			default:
				return nil, fmt.Errorf("egglog: %s:scheduler expects a symbol or string spec, got %s", srcPos(items[i+1]), items[i+1])
			}
			s, err := sched.Parse(spec)
			if err != nil {
				return nil, fmt.Errorf("egglog: %s%v", srcPos(items[i+1]), err)
			}
			cfg.Scheduler = s
			items = append(append([]*sexp.Node{}, items[:i]...), items[i+2:]...)
			i--
		}
		report, err := p.RunSchedule(items, cfg)
		if err != nil {
			return nil, err
		}
		if report.Err != nil {
			return nil, report.Err
		}
		return &Result{Command: "run-schedule", Report: report}, nil

	case "print-function":
		if len(args) < 1 || args[0].Kind != sexp.KindSymbol {
			return nil, fmt.Errorf("egglog: print-function expects a function name")
		}
		f, ok := p.g.FunctionByName(args[0].Sym)
		if !ok {
			return nil, fmt.Errorf("egglog: unknown function %q", args[0].Sym)
		}
		limit := 20
		if len(args) == 2 && args[1].Kind == sexp.KindInt {
			limit = int(args[1].Int)
		}
		p.g.Rebuild()
		rows, err := p.renderRows(f, limit)
		if err != nil {
			return nil, err
		}
		return &Result{Command: "print-function", Rows: rows}, nil

	case "push", "pop", "print-size", "print-stats", "input", "output", "include":
		return nil, fmt.Errorf("egglog: command %q is not supported by this interpreter", head)

	default:
		// A top-level application of a declared function is a fact: it is
		// evaluated for its side effect of populating the database (useful
		// for relations and for seeding terms without a let).
		if _, ok := p.g.FunctionByName(head); ok {
			_, err := p.EvalExpr(n)
			return nil, err
		}
		return nil, fmt.Errorf("egglog: unknown command %q", head)
	}
}

// Check reports whether the conjunction of facts has at least one match in
// the current e-graph.
func (p *Program) Check(facts []*sexp.Node) (bool, error) {
	r, err := p.compileRule("check", facts, nil)
	if err != nil {
		return false, err
	}
	p.g.Rebuild()
	holds := false
	err = p.g.Match(r, func([]egraph.Value) bool {
		holds = true
		return false
	})
	return holds, err
}
