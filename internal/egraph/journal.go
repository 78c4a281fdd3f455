package egraph

import (
	"fmt"
	"strconv"
	"strings"

	"dialegg/internal/obs/journal"
)

// SetJournal attaches (or detaches, with nil) an event journal to the
// graph and begins a new graph segment named label. Every subsequent
// mutation — declarations, inserts, unions, rebuild congruences — is
// recorded with enough information for Replay to reconstruct the graph
// bit-identically.
//
// On a clone of a graph that recorded its history (RecordHistory), the
// segment header is that history: everything the graph held when it was
// cloned, rows and unions included. Otherwise attach the journal before
// inserting any rows: declarations made earlier are back-filled into the
// segment header, but existing rows and classes are not, and a replay of
// such a journal diverges. All emission happens in the engine's serial
// sections, so journaling adds nothing to the concurrent match phase.
func (g *EGraph) SetJournal(w *journal.Writer, label string) {
	g.journal = w
	if w == nil {
		return
	}
	w.Emit(journal.Event{Kind: journal.KGraph, Name: label, Explanations: g.proofs != nil})
	if g.history != nil {
		w.EmitLines(g.history)
		return
	}
	// Back-fill declarations that preceded attachment. Eq-sort order is
	// immaterial for replay (sorts are resolved by name), so sorted-by-name
	// keeps the segment header deterministic; function order is declaration
	// order, which replay must preserve (it fixes table iteration order).
	for _, s := range g.Sorts() {
		if s.Kind == KindEq {
			w.Emit(journal.Event{Kind: journal.KSort, Name: s.Name})
		}
	}
	for _, f := range g.funcs {
		w.Emit(g.fnEvent(f))
	}
}

// Journal returns the attached journal writer (nil when journaling is off).
func (g *EGraph) Journal() *journal.Writer { return g.journal }

// jEmit stamps the ambient context — iteration counter, applying rule,
// rebuild flag — onto e and appends it. Callers guard with g.journal != nil
// before building the event, so disabled journaling costs one nil check.
func (g *EGraph) jEmit(e journal.Event) {
	if g.journal == nil {
		return
	}
	e.Iter = int(g.iterCur)
	e.Rebuild = g.inRebuild
	if e.Rule == "" {
		e.Rule = g.ruleName(g.ruleCur)
	}
	g.journal.Emit(e)
}

// fnEvent encodes a function declaration.
func (g *EGraph) fnEvent(f *Function) journal.Event {
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = p.Name
	}
	return journal.Event{
		Kind:          journal.KFn,
		Fn:            f.Name,
		Params:        params,
		OutSort:       f.Out.Name,
		FnCost:        f.Cost,
		Merge:         f.MergeName,
		Unextractable: f.Unextractable,
	}
}

// encodeVal renders a value self-describingly: strings and vectors by
// content (intern-pool numbering is process-local), everything else by its
// raw 64-bit payload in decimal (eq-sort class IDs are replay-stable —
// they are allocated densely and every allocation is journaled).
func (g *EGraph) encodeVal(v Value) journal.Val {
	jv := journal.Val{Sort: g.SortOf(v).Name}
	switch v.kind {
	case KindString:
		s := g.StringOf(v)
		jv.Str = &s
	case KindVec:
		elems := g.VecElems(v)
		jv.Elems = make([]journal.Val, len(elems))
		for i, e := range elems {
			jv.Elems[i] = g.encodeVal(e)
		}
	case KindUnit:
		// No payload.
	default:
		jv.Bits = strconv.FormatUint(v.Bits, 10)
	}
	return jv
}

func (g *EGraph) encodeVals(vs []Value) []journal.Val {
	out := make([]journal.Val, len(vs))
	for i, v := range vs {
		out[i] = g.encodeVal(v)
	}
	return out
}

// sortForName resolves a journal sort name, declaring vector sorts on
// demand (they are declared lazily by VecSortOf in the original run too).
func (g *EGraph) sortForName(name string) (*Sort, error) {
	if s, ok := g.sorts[name]; ok {
		return s, nil
	}
	if inner, ok := strings.CutPrefix(name, "Vec<"); ok && strings.HasSuffix(inner, ">") {
		elem, err := g.sortForName(strings.TrimSuffix(inner, ">"))
		if err != nil {
			return nil, err
		}
		return g.VecSortOf(elem), nil
	}
	return nil, fmt.Errorf("egraph: journal names undeclared sort %q", name)
}

// decodeVal reconstructs a journaled value in this graph. The decoded
// value is used verbatim — never re-canonicalized — because the journal
// records the exact (possibly frozen-apply) canonical form the original
// run stored, and replay must store the same bits.
func (g *EGraph) decodeVal(jv journal.Val) (Value, error) {
	s, err := g.sortForName(jv.Sort)
	if err != nil {
		return Value{}, err
	}
	switch s.Kind {
	case KindString:
		if jv.Str == nil {
			return Value{}, fmt.Errorf("egraph: journal String value without payload")
		}
		return g.InternString(*jv.Str), nil
	case KindVec:
		elems := make([]Value, len(jv.Elems))
		for i, je := range jv.Elems {
			if elems[i], err = g.decodeVal(je); err != nil {
				return Value{}, err
			}
		}
		// Raw intern: elements carry the recorded canonical bits already.
		return s.value(uint64(g.vecs.intern(elems))), nil
	case KindUnit:
		return s.value(0), nil
	default:
		bits, err := strconv.ParseUint(jv.Bits, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("egraph: journal value payload: %w", err)
		}
		return s.value(bits), nil
	}
}

func (g *EGraph) decodeVals(jvs []journal.Val) ([]Value, error) {
	out := make([]Value, len(jvs))
	for i, jv := range jvs {
		var err error
		if out[i], err = g.decodeVal(jv); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// encodeJust encodes a union justification for the journal.
func (g *EGraph) encodeJust(j Justification) *journal.Just {
	out := &journal.Just{Kind: j.Kind, Rule: j.Rule}
	if j.Fn != nil {
		out.Fn = j.Fn.Name
	}
	if len(j.ArgsA) > 0 {
		out.ArgsA = g.encodeVals(j.ArgsA)
	}
	if len(j.ArgsB) > 0 {
		out.ArgsB = g.encodeVals(j.ArgsB)
	}
	return out
}

// decodeJust reconstructs a journaled justification.
func (g *EGraph) decodeJust(j *journal.Just, iter int) (Justification, error) {
	if j == nil {
		return Justification{Kind: "explicit", Iter: iter}, nil
	}
	out := Justification{Kind: j.Kind, Rule: j.Rule, Iter: iter}
	if j.Fn != "" {
		f, ok := g.funcsBy[j.Fn]
		if !ok {
			return Justification{}, fmt.Errorf("egraph: journal justification names undeclared function %q", j.Fn)
		}
		out.Fn = f
	}
	var err error
	if out.ArgsA, err = g.decodeVals(j.ArgsA); err != nil {
		return Justification{}, err
	}
	if out.ArgsB, err = g.decodeVals(j.ArgsB); err != nil {
		return Justification{}, err
	}
	return out, nil
}

// mergeFnByName maps a journaled merge name back to its function. Names
// are recorded from Function.MergeName (set by the egglog front end);
// graphs built directly against this package should set MergeName on
// functions with a non-default merge if their journals are to be replayed
// through rebuild-time primitive collisions.
func mergeFnByName(name string) (MergeFn, error) {
	switch name {
	case "", "must-equal":
		return MergeMustEqual, nil
	case "min":
		return MergeMinI64, nil
	case "max":
		return MergeMaxI64, nil
	case "overwrite":
		return MergeOverwrite, nil
	default:
		return nil, fmt.Errorf("egraph: journal names unknown merge %q", name)
	}
}

// ruleID interns a rule name for compact per-row provenance stamps. ID 0
// is reserved for "no rule" (rows created outside rule application).
func (g *EGraph) ruleID(name string) uint32 {
	if name == "" {
		return 0
	}
	if g.ruleIDs == nil {
		g.ruleIDs = make(map[string]uint32)
		g.provRules = []string{""}
	}
	if id, ok := g.ruleIDs[name]; ok {
		return id
	}
	id := uint32(len(g.provRules))
	g.provRules = append(g.provRules, name)
	g.ruleIDs[name] = id
	return id
}

// ruleName resolves a provenance rule ID ("" for 0 / unknown).
func (g *EGraph) ruleName(id uint32) string {
	if id == 0 || int(id) >= len(g.provRules) {
		return ""
	}
	return g.provRules[id]
}

// stampProvenance marks the newest row of f's table with the ambient
// creating rule and iteration. Provenance is unconditional (two uint32s
// per row): it costs nothing measurable and makes "introduced by rule X at
// iteration N" available to Explain, DOT, snapshots, and the extraction
// report without re-running under a debug flag.
func (g *EGraph) stampProvenance(f *Function) {
	rows := g.tab(f).rows
	r := &rows[len(rows)-1]
	r.provRule = g.ruleCur
	r.provIter = g.iterCur
}

// RowProvenance reports which rule created row ri of f's table and at
// which saturation iteration. rule is "" (and iter 0) for rows created
// outside rule application — initial program terms, explicit inserts.
func (g *EGraph) RowProvenance(f *Function, ri int) (rule string, iter int) {
	r := &g.tab(f).rows[ri]
	return g.ruleName(r.provRule), int(r.provIter)
}

// provenanceNote renders a row's provenance for labels and reports, or ""
// when the row predates rule application.
func (g *EGraph) provenanceNote(f *Function, ri int) string {
	rule, iter := g.RowProvenance(f, ri)
	if rule == "" {
		return ""
	}
	return fmt.Sprintf("introduced by rule %s at iteration %d", rule, iter)
}

// Iteration returns the graph-lifetime saturation iteration counter (the
// value rows and unions are stamped with; 0 before any run).
func (g *EGraph) Iteration() int { return int(g.iterCur) }
