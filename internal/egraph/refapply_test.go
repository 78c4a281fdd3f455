package egraph

import "fmt"

// This file keeps the tree-walking action interpreter the compiled
// actions replaced, as the reference FuzzCompiledActions and
// TestCompiledActionsMatchReference hold them to: evaluating a term
// recursively, a constructor application through Insert, a set through
// Set and a cost through SetNodeCost.

// refEvalATerm evaluates an action term under the given bindings,
// inserting e-nodes for constructor applications. Slots and literals
// canonicalize through canonFind, so inside the apply phase values
// resolve against the iteration-start snapshot.
func refEvalATerm(g *EGraph, t *ATerm, binds []Value) (Value, error) {
	switch t.Kind {
	case AVar:
		return g.canonFind(binds[t.Slot]), nil
	case ALit:
		return g.canonFind(t.Lit), nil
	case AApp, AVec, APrim:
		args, err := refEvalArgs(g, nil, t.Args, binds)
		if err != nil {
			return Value{}, err
		}
		switch t.Kind {
		case AVec:
			return g.InternVec(t.VecSort, args), nil
		case AApp:
			return g.Insert(t.Fn, args...)
		}
		out, ok := t.Prim.Apply(g, args)
		if !ok {
			return Value{}, fmt.Errorf("egraph: primitive %s failed in action", t.Prim.Name)
		}
		return out, nil
	default:
		return Value{}, fmt.Errorf("egraph: unknown action term kind %d", t.Kind)
	}
}

// refApplyActions runs the rule's actions under one match's bindings.
func refApplyActions(g *EGraph, r *Rule, binds []Value) error {
	for _, act := range r.Actions {
		switch a := act.(type) {
		case *LetAction:
			v, err := refEvalATerm(g, a.T, binds)
			if err != nil {
				return err
			}
			binds[a.Slot] = v
		case *UnionAction:
			// Variable endpoints keep the matched row's original identity.
			va, err := refEvalUnionEndpoint(g, a.A, binds)
			if err != nil {
				return err
			}
			vb, err := refEvalUnionEndpoint(g, a.B, binds)
			if err != nil {
				return err
			}
			if _, err := g.UnionWithReason(va, vb, Justification{Kind: "rule", Rule: r.Name}); err != nil {
				return fmt.Errorf("egraph: rule %s: %w", r.Name, err)
			}
		case *SetAction:
			args, err := refEvalArgs(g, nil, a.Args, binds)
			if err != nil {
				return err
			}
			out, err := refEvalATerm(g, a.Out, binds)
			if err != nil {
				return err
			}
			if err := g.Set(a.Fn, args, out); err != nil {
				return fmt.Errorf("egraph: rule %s: %w", r.Name, err)
			}
		case *CostAction:
			args, err := refEvalArgs(g, nil, a.Args, binds)
			if err != nil {
				return err
			}
			cv, err := refEvalATerm(g, a.Cost, binds)
			if err != nil {
				return err
			}
			if cv.kind != KindI64 {
				return fmt.Errorf("egraph: rule %s: unstable-cost expects i64 cost, got %s", r.Name, g.SortOf(cv))
			}
			if err := g.SetNodeCost(a.Fn, args, cv.AsI64()); err != nil {
				return fmt.Errorf("egraph: rule %s: %w", r.Name, err)
			}
		case *InsertAction:
			if _, err := refEvalATerm(g, a.T, binds); err != nil {
				return err
			}
		default:
			return fmt.Errorf("egraph: unknown action type %T", act)
		}
	}
	return nil
}

// refEvalArgs appends the values of ts under binds to dst.
func refEvalArgs(g *EGraph, dst []Value, ts []*ATerm, binds []Value) ([]Value, error) {
	for _, t := range ts {
		v, err := refEvalATerm(g, t, binds)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// refEvalUnionEndpoint evaluates a union endpoint preserving the original
// e-node identity of a plain variable reference.
func refEvalUnionEndpoint(g *EGraph, t *ATerm, binds []Value) (Value, error) {
	if t.Kind == AVar {
		return binds[t.Slot], nil
	}
	return refEvalATerm(g, t, binds)
}
