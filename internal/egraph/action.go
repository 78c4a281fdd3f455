package egraph

import "fmt"

// opcode is what one instruction of a compiled action list does.
type opcode uint8

const (
	// insVar pushes a slot's value.
	insVar opcode = iota
	// insLit pushes a literal.
	insLit
	// insInsert pops a constructor's or a Unit function's arguments,
	// finds the node they name, inserting it when absent, and pushes its
	// output.
	insInsert
	// insLookup pops a primitive-output function's arguments and pushes
	// the output of the row they name; an absent row is an error.
	insLookup
	// insPrim pops a primitive's arguments and pushes its result.
	insPrim
	// insVec pops a vector's elements and pushes the interned vector.
	insVec
	// insLet pops a value into a slot.
	insLet
	// insUnion pops two values and unions them.
	insUnion
	// insSet pops a function's arguments and an output and writes the row.
	insSet
	// insCost pops a constructor's arguments and a cost and installs the
	// node's cost override.
	insCost
	// insPop discards the value a bare application pushed.
	insPop
	// insFail stops the actions with an error found while compiling them.
	insFail
)

// instr is one instruction of a rule's compiled actions. An instruction
// that pops operands reads them as the top n values of the stack, the
// first operand deepest.
type instr struct {
	op opcode
	// canon canonicalizes the value the instruction pushes: its consumer
	// keys a table with it. Without it a slot or a literal is pushed as
	// stored, and a node's output is the row's original one.
	canon bool
	// n is the operand count of an instruction that pops arguments or
	// elements, and the slot of insVar and insLet.
	n int32
	// checkOut makes insSet check its output's sort, which compile could
	// not prove.
	checkOut bool
	// check has bit i set when compile could not prove the sort of
	// argument i of insInsert, insLookup, insSet or insCost; arguments
	// past the 64th are always checked.
	check uint64
	fn    *Function
	prim  *Prim
	lit   Value
	vec   *Sort
	// err is insFail's error, or the arity error of an application whose
	// argument count is not its function's, reported where the
	// application runs.
	err error
}

// actionCompiler compiles a rule's actions (rulePlan.compileActions).
type actionCompiler struct {
	code []instr
	// sorts is each slot's sort as far as compile can tell (nil:
	// unknown); written marks the slots a let has written so far.
	sorts   []*Sort
	written []bool
	// slots is the rule's query-slot count and read marks the query slots
	// the actions read before any let overwrites them.
	slots int
	read  []bool
}

// termUse is how the consumer of a term's value treats it, which decides
// whether the term canonicalizes what it pushes.
type termUse uint8

const (
	// useKey: the value is an argument of a table access or a set's
	// output, so it must be canonical.
	useKey termUse = iota
	// useValue: the value is kept as evaluated (a let, a primitive's
	// argument, a union endpoint): a slot or a literal is canonical, a
	// node's output the row's original one.
	useValue
	// useElem: the value is a vector element, which interning resolves
	// through the live union-find itself.
	useElem
)

// compileActions compiles r's actions into a flat post-order instruction
// list and lists the query slots the list reads (keep). The slots'
// sorts are taken from the table premises that bind them; a value whose
// sort compile cannot prove (a primitive's result, a slot only a
// primitive binds) has its sort checked where it is used.
func (p *rulePlan) compileActions(r *Rule) {
	c := actionCompiler{
		sorts:   make([]*Sort, r.NumSlots),
		written: make([]bool, r.NumSlots),
		slots:   p.slots,
		read:    make([]bool, p.slots),
	}
	// A match binds a slot that several columns share only when their
	// values have one sort (matchVal), so the first column gives it.
	note := func(a Atom, s *Sort) {
		if a.Kind == AtomVar && a.Slot < len(c.sorts) && c.sorts[a.Slot] == nil {
			c.sorts[a.Slot] = s
		}
	}
	for _, pr := range r.Premises {
		if tp, ok := pr.(*TablePremise); ok {
			for j, a := range tp.Args {
				note(a, tp.Fn.Params[j])
			}
			note(tp.Out, tp.Fn.Out)
		}
	}
	for _, act := range r.Actions {
		switch a := act.(type) {
		case *LetAction:
			s := c.term(a.T, useValue)
			c.emit(instr{op: insLet, n: int32(a.Slot)})
			if a.Slot < len(c.sorts) {
				c.sorts[a.Slot], c.written[a.Slot] = s, true
			}
		case *UnionAction:
			// A variable endpoint keeps the matched row's original
			// identity, so union justifications anchor at the exact
			// e-nodes the rule related.
			c.endpoint(a.A)
			c.endpoint(a.B)
			c.emit(instr{op: insUnion})
		case *SetAction:
			in := c.args(insSet, a.Fn, a.Args)
			in.checkOut = !hasSort(a.Out, c.term(a.Out, useKey), a.Fn.Out)
			c.emit(in)
		case *CostAction:
			in := c.args(insCost, a.Fn, a.Args)
			c.term(a.Cost, useValue)
			c.emit(in)
		case *InsertAction:
			c.term(a.T, useValue)
			c.emit(instr{op: insPop})
		default:
			c.emit(instr{op: insFail, err: fmt.Errorf("egraph: unknown action type %T", act)})
		}
	}
	p.acts = c.code
	for s, read := range c.read {
		if read {
			p.keep = append(p.keep, int32(s))
		}
	}
}

func (c *actionCompiler) emit(in instr) { c.code = append(c.code, in) }

// hasSort reports whether compile proved that t, whose value compiled to
// sort got (nil: unknown), has sort want.
func hasSort(t *ATerm, got, want *Sort) bool {
	return got == want || t.Kind == ALit && t.Lit.sort == want.id
}

// canonical reports whether every value of sort s (nil: unknown) is its
// own canonical form, so canonicalizing one changes nothing: a sort that
// holds no class, such as a primitive or a Vec<i64>.
func canonical(s *Sort) bool {
	return s != nil && !s.holdsClasses()
}

// endpoint compiles a union endpoint.
func (c *actionCompiler) endpoint(t *ATerm) {
	if t.Kind == AVar {
		c.slot(t.Slot, false)
		return
	}
	c.term(t, useValue)
}

// slot compiles a read of slot s and returns its sort.
func (c *actionCompiler) slot(s int, canon bool) *Sort {
	var sort *Sort
	if s < len(c.sorts) {
		sort = c.sorts[s]
		if s < c.slots && !c.written[s] {
			c.read[s] = true
		}
	}
	c.emit(instr{op: insVar, n: int32(s), canon: canon && !canonical(sort)})
	return sort
}

// term compiles t in post-order, its arguments left to right, and returns
// the sort of its value (nil: unknown, which a literal's is too).
func (c *actionCompiler) term(t *ATerm, use termUse) *Sort {
	switch t.Kind {
	case AVar:
		return c.slot(t.Slot, use != useElem)
	case ALit:
		k := t.Lit.kind
		c.emit(instr{op: insLit, lit: t.Lit, canon: use != useElem && (k == KindEq || k == KindVec)})
		return nil
	case AApp:
		op := insLookup
		if t.Fn.IsConstructor() || t.Fn.Out.Kind == KindUnit {
			op = insInsert
		}
		in := c.args(op, t.Fn, t.Args)
		in.canon = use == useKey && !canonical(t.Fn.Out)
		c.emit(in)
		return t.Fn.Out
	case APrim:
		for _, a := range t.Args {
			c.term(a, useValue)
		}
		c.emit(instr{op: insPrim, prim: t.Prim, n: int32(len(t.Args)), canon: use == useKey})
		return nil
	case AVec:
		for _, a := range t.Args {
			c.term(a, useElem)
		}
		c.emit(instr{op: insVec, vec: t.VecSort, n: int32(len(t.Args)), canon: use == useKey && !canonical(t.VecSort)})
		return t.VecSort
	default:
		c.emit(instr{op: insFail, err: fmt.Errorf("egraph: unknown action term kind %d", t.Kind)})
		return nil
	}
}

// args compiles the arguments of an application of f and returns the
// instruction that consumes them, with their sort checks and any arity
// error.
func (c *actionCompiler) args(op opcode, f *Function, args []*ATerm) instr {
	in := instr{op: op, fn: f, n: int32(len(args))}
	if len(args) != len(f.Params) {
		in.err = fmt.Errorf("egraph: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	for i, a := range args {
		s := c.term(a, useKey)
		if i >= 64 || i >= len(f.Params) || !hasSort(a, s, f.Params[i]) {
			in.check |= 1 << min(i, 63)
		}
	}
	return in
}

// ApplyActions runs the rule's compiled actions under one match's
// bindings: binds holds a value per slot (Rule.NumSlots), the query slots
// as the match bound them, and receives the actions' lets.
func (g *EGraph) ApplyActions(r *Rule, binds []Value) error {
	return g.exec(r, r.planOf().acts, binds)
}

// exec runs compiled actions on the graph's value stack, which it hands
// back with its storage.
func (g *EGraph) exec(r *Rule, code []instr, binds []Value) error {
	st, err := g.execOn(g.stack[:0], r, code, binds)
	g.stack = st[:0]
	return err
}

// execOn runs code on the stack st and returns the stack. Slots and
// literals resolve through canonFind, so inside the runner's apply phase
// the values a match produces do not depend on unions applied earlier in
// the same batch; vector elements go through the live Find, as InternVec
// does. Errors read as the engine API calls each instruction stands for
// word them; those of a union, a set and a cost name the rule.
func (g *EGraph) execOn(st []Value, r *Rule, code []instr, binds []Value) ([]Value, error) {
	for i := range code {
		in := &code[i]
		var v Value
		switch in.op {
		case insVar:
			v = binds[in.n]
		case insLit:
			v = in.lit
		case insInsert, insLookup:
			args := st[len(st)-int(in.n):]
			if err := g.checkArgs(in, args); err != nil {
				return st, err
			}
			t := g.tables[in.fn.id]
			ri, entry, ok := t.probe(args, -1)
			switch {
			case ok:
				// The row's original identity (not the canonical class):
				// consumers canonicalize, and proofs stay anchored at
				// e-node identities.
				v = t.rows[ri].out
			case in.op == insLookup:
				return st, fmt.Errorf("egraph: %s(...) not present (primitive-output functions need Set)", in.fn.Name)
			default:
				v = g.insertNew(in.fn, t, args, entry)
			}
			st = st[:len(st)-int(in.n)]
		case insPrim:
			var ok bool
			v, ok = in.prim.Apply(g, st[len(st)-int(in.n):])
			if !ok {
				return st, fmt.Errorf("egraph: primitive %s failed in action", in.prim.Name)
			}
			st = st[:len(st)-int(in.n)]
		case insVec:
			v = g.InternVec(in.vec, st[len(st)-int(in.n):])
			st = st[:len(st)-int(in.n)]
		case insLet:
			binds[in.n] = st[len(st)-1]
			st = st[:len(st)-1]
			continue
		case insUnion:
			a, b := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-2]
			if _, err := g.UnionWithReason(a, b, Justification{Kind: "rule", Rule: r.Name}); err != nil {
				return st, fmt.Errorf("egraph: rule %s: %w", r.Name, err)
			}
			continue
		case insSet, insCost:
			last := st[len(st)-1]
			args := st[len(st)-1-int(in.n) : len(st)-1]
			st = st[:len(st)-1-int(in.n)]
			if err := g.writeRow(in, args, last); err != nil {
				return st, fmt.Errorf("egraph: rule %s: %w", r.Name, err)
			}
			continue
		case insPop:
			st = st[:len(st)-1]
			continue
		default:
			return st, in.err
		}
		if in.canon {
			v = g.canonFind(v)
		}
		st = append(st, v)
	}
	return st, nil
}

// writeRow runs a set (last is the output) or a cost instruction (last is
// the cost) on its arguments, with the checks, in their order, of Set and
// of an unstable-cost action.
func (g *EGraph) writeRow(in *instr, args []Value, last Value) error {
	f := in.fn
	if in.op == insSet {
		if in.checkOut && last.sort != f.Out.id {
			return fmt.Errorf("egraph: %s output: have sort %s, want %s", f.Name, g.SortOf(last), f.Out)
		}
		if err := g.checkArgs(in, args); err != nil {
			return err
		}
		return g.setRow(f, args, last)
	}
	switch {
	case last.kind != KindI64:
		return fmt.Errorf("unstable-cost expects i64 cost, got %s", g.SortOf(last))
	case !f.IsConstructor():
		return fmt.Errorf("egraph: unstable-cost on non-constructor %s", f.Name)
	}
	if err := g.checkArgs(in, args); err != nil {
		return err
	}
	g.setCost(f, args, last.AsI64())
	return nil
}

// checkArgs reports in's arity error, or the first argument whose sort
// compile could not prove and that is not f's parameter sort, in the
// words of canonArgs.
func (g *EGraph) checkArgs(in *instr, args []Value) error {
	if in.err != nil {
		return in.err
	}
	if in.check == 0 {
		return nil
	}
	f := in.fn
	for i, a := range args {
		if in.check&(1<<min(i, 63)) != 0 && a.sort != f.Params[i].id {
			return fmt.Errorf("egraph: %s arg %d: have sort %s, want %s", f.Name, i, g.SortOf(a), f.Params[i])
		}
	}
	return nil
}
