package egglog

import (
	"fmt"
	"strings"

	"dialegg/internal/egraph"
	"dialegg/internal/sexp"
)

// DeclareRuleset registers an empty named ruleset.
func (p *Program) DeclareRuleset(name string) error {
	if name == "" {
		return fmt.Errorf("egglog: ruleset name cannot be empty")
	}
	if _, dup := p.rulesets[name]; dup {
		return fmt.Errorf("egglog: ruleset %q already declared", name)
	}
	p.rulesets[name] = nil
	p.rulesetOrder = append(p.rulesetOrder, name)
	return nil
}

// addRule files a compiled rule under its ruleset ("" = default).
func (p *Program) addRule(r *egraph.Rule, ruleset string) error {
	if ruleset == "" {
		p.rules = append(p.rules, r)
		return nil
	}
	if _, ok := p.rulesets[ruleset]; !ok {
		return fmt.Errorf("egglog: unknown ruleset %q (declare it with (ruleset %s))", ruleset, ruleset)
	}
	p.rulesets[ruleset] = append(p.rulesets[ruleset], r)
	return nil
}

// rulesFor resolves a ruleset name for scheduling; the empty name means
// the default set.
func (p *Program) rulesFor(name string) ([]*egraph.Rule, error) {
	if name == "" {
		return p.rules, nil
	}
	rs, ok := p.rulesets[name]
	if !ok {
		return nil, fmt.Errorf("egglog: unknown ruleset %q", name)
	}
	return rs, nil
}

// RunSchedule interprets a (run-schedule ...) body: a sequence of schedule
// items executed in order. Supported items:
//
//	<ruleset-name>            run that ruleset once
//	(run <ruleset>? <N>?)     run a ruleset for up to N iterations
//	(saturate item...)        repeat the items until nothing changes
//	(seq item...)             run items in order
//	(repeat N item...)        run items N times
//
// The aggregate report covers the whole schedule (iterations summed,
// last stop reason kept).
func (p *Program) RunSchedule(items []*sexp.Node, cfg egraph.RunConfig) (egraph.RunReport, error) {
	total := egraph.RunReport{Stop: egraph.StopSaturated}
	for _, item := range items {
		rep, err := p.runScheduleItem(item, cfg)
		if err != nil {
			return total, err
		}
		total.Merge(rep)
		if rep.Err != nil {
			total.Err = rep.Err
			break
		}
		// Cancellation ends the whole schedule, not just the item; later
		// items would each pay one no-op run before noticing.
		if rep.Stop == egraph.StopCanceled {
			break
		}
	}
	p.LastRun = total
	return total, nil
}

// srcPos renders a node's source position for error messages ("3:14: "
// when the node came from the parser, empty otherwise), so a failing
// sub-schedule or :merge is locatable inside a long program instead of
// only by its rendered text.
func srcPos(n *sexp.Node) string {
	if n.Line > 0 {
		return fmt.Sprintf("%d:%d: ", n.Line, n.Col)
	}
	return ""
}

// schedItemErr wraps a resolution error with the offending item's
// position and rendered text, stripping the inner "egglog: " prefix so
// the combined message carries it exactly once.
func schedItemErr(item *sexp.Node, err error) error {
	return fmt.Errorf("egglog: %sschedule item %s: %s",
		srcPos(item), item, strings.TrimPrefix(err.Error(), "egglog: "))
}

func (p *Program) runScheduleItem(item *sexp.Node, cfg egraph.RunConfig) (egraph.RunReport, error) {
	if item.Kind == sexp.KindSymbol {
		rules, err := p.rulesFor(item.Sym)
		if err != nil {
			return egraph.RunReport{}, schedItemErr(item, err)
		}
		one := cfg
		one.IterLimit = 1
		return p.g.Run(rules, one), nil
	}
	if item.Kind != sexp.KindList {
		return egraph.RunReport{}, fmt.Errorf("egglog: %sinvalid schedule item %s (want a ruleset symbol or a (run|saturate|seq|repeat ...) list)", srcPos(item), item)
	}
	switch item.Head() {
	case "run":
		name := ""
		iters := 0
		for _, a := range item.Args() {
			switch a.Kind {
			case sexp.KindSymbol:
				name = a.Sym
			case sexp.KindInt:
				iters = int(a.Int)
			default:
				return egraph.RunReport{}, fmt.Errorf("egglog: %sinvalid (run ...) argument %s in %s", srcPos(a), a, item)
			}
		}
		rules, err := p.rulesFor(name)
		if err != nil {
			return egraph.RunReport{}, schedItemErr(item, err)
		}
		one := cfg
		if iters > 0 {
			one.IterLimit = iters
		}
		return p.g.Run(rules, one), nil

	case "saturate":
		// Cap outer iterations so a schedule over an ever-growing ruleset
		// still terminates even without an explicit limit.
		limit := cfg.IterLimit
		if limit <= 0 {
			limit = 10_000
		}
		var total egraph.RunReport
		for {
			before := p.g.UnionCount()
			rowsBefore := p.g.TotalRows()
			for _, sub := range item.Args() {
				rep, err := p.runScheduleItem(sub, cfg)
				if err != nil {
					return total, err
				}
				total.Merge(rep)
				if rep.Err != nil {
					total.Err = rep.Err
					return total, nil
				}
				// A canceled sub-run changed nothing, which the fixpoint
				// test below would misread as saturation — report the
				// cancellation instead.
				if rep.Stop == egraph.StopCanceled {
					return total, nil
				}
			}
			if p.g.UnionCount() == before && p.g.TotalRows() == rowsBefore {
				total.Stop = egraph.StopSaturated
				return total, nil
			}
			if total.Iterations >= limit {
				total.Stop = egraph.StopIterLimit
				return total, nil
			}
		}

	case "seq":
		var total egraph.RunReport
		for _, sub := range item.Args() {
			rep, err := p.runScheduleItem(sub, cfg)
			if err != nil {
				return total, err
			}
			total.Merge(rep)
			if rep.Err != nil || rep.Stop == egraph.StopCanceled {
				total.Err = rep.Err
				return total, nil
			}
		}
		return total, nil

	case "repeat":
		if len(item.Args()) < 1 || item.Args()[0].Kind != sexp.KindInt {
			return egraph.RunReport{}, fmt.Errorf("egglog: %srepeat expects a count: %s", srcPos(item), item)
		}
		var total egraph.RunReport
		for i := int64(0); i < item.Args()[0].Int; i++ {
			for _, sub := range item.Args()[1:] {
				rep, err := p.runScheduleItem(sub, cfg)
				if err != nil {
					return total, err
				}
				total.Merge(rep)
				if rep.Err != nil || rep.Stop == egraph.StopCanceled {
					total.Err = rep.Err
					return total, nil
				}
			}
		}
		return total, nil

	default:
		return egraph.RunReport{}, fmt.Errorf("egglog: %sunknown schedule form %q in %s", srcPos(item), item.Head(), item)
	}
}
