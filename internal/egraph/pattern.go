package egraph

import (
	"fmt"
	"slices"
	"sync"
)

// Prim is a primitive operation usable in rule premises and actions, such
// as i64 addition or log2. Apply returns false when the primitive does not
// apply (e.g. log2 of a non-power-of-two when the rule requires exactness).
// Apply must not keep args past its return: the engine passes a window of
// a buffer it reuses for the next application.
type Prim struct {
	Name  string
	Apply func(g *EGraph, args []Value) (Value, bool)
}

// AtomKind discriminates pattern atoms.
type AtomKind uint8

// Atom kinds.
const (
	// AtomVar refers to a binding slot.
	AtomVar AtomKind = iota
	// AtomLit is a concrete value.
	AtomLit
)

// Atom is a flat pattern position: a variable slot or a literal value.
type Atom struct {
	Kind AtomKind
	Slot int
	Lit  Value
}

// VarAtom returns an atom referring to slot.
func VarAtom(slot int) Atom { return Atom{Kind: AtomVar, Slot: slot} }

// LitAtom returns an atom holding a concrete value.
func LitAtom(v Value) Atom { return Atom{Kind: AtomLit, Lit: v} }

// Premise is one conjunct of a rule query.
type Premise interface{ isPremise() }

// TablePremise matches a row f(Args...) = Out of f's table.
type TablePremise struct {
	Fn   *Function
	Args []Atom
	Out  Atom
}

func (*TablePremise) isPremise() {}

// EvalPremise computes Prim(Args...) — all argument variables must be bound
// by earlier premises — and unifies the result with Out.
type EvalPremise struct {
	Prim *Prim
	Args []Atom
	Out  Atom
}

func (*EvalPremise) isPremise() {}

// ATermKind discriminates action-term variants.
type ATermKind uint8

// Action-term kinds.
const (
	// AVar reads a binding slot.
	AVar ATermKind = iota
	// ALit is a concrete value.
	ALit
	// AApp applies a declared function (inserting an e-node for
	// constructors).
	AApp
	// APrim applies a primitive.
	APrim
	// AVec builds a vector value.
	AVec
)

// ATerm is a (possibly nested) term evaluated during rule application.
type ATerm struct {
	Kind    ATermKind
	Slot    int       // AVar
	Lit     Value     // ALit
	Fn      *Function // AApp
	Prim    *Prim     // APrim
	VecSort *Sort     // AVec
	Args    []*ATerm
}

// Action is one effect of a rule.
type Action interface{ isAction() }

// LetAction evaluates T and stores it in Slot for later actions.
type LetAction struct {
	Slot int
	T    *ATerm
}

func (*LetAction) isAction() {}

// UnionAction unifies the e-classes of A and B.
type UnionAction struct{ A, B *ATerm }

func (*UnionAction) isAction() {}

// SetAction writes Fn(Args...) = Out in a primitive-output table.
type SetAction struct {
	Fn   *Function
	Args []*ATerm
	Out  *ATerm
}

func (*SetAction) isAction() {}

// CostAction installs an extraction-cost override for the e-node
// Fn(Args...); this is the engine half of the paper's `unstable-cost`.
type CostAction struct {
	Fn   *Function
	Args []*ATerm
	Cost *ATerm
}

func (*CostAction) isAction() {}

// InsertAction evaluates T for its side effect (creating e-nodes).
type InsertAction struct{ T *ATerm }

func (*InsertAction) isAction() {}

// Rule is a compiled egglog rule: when all premises hold under some
// binding, run the actions under that binding. A rule must not change
// once it has been matched.
type Rule struct {
	Name     string
	Premises []Premise
	Actions  []Action
	// NumSlots is the size of the binding array (query variables plus
	// action lets).
	NumSlots int

	// plan is built on the rule's first match (planOf) and read by every
	// later run, including the runs of graphs cloned from one another,
	// which share their rules.
	planOnce sync.Once
	plan     rulePlan
}

// planOf returns r's plan, building it on first use.
func (r *Rule) planOf() *rulePlan {
	r.planOnce.Do(func() { r.plan = planRule(r) })
	return &r.plan
}

// bindings is the mutable state of one query execution. A match worker
// keeps one for all its tasks.
type bindings struct {
	vals  []Value
	bound []bool
}

// reset sizes b to n slots, all unbound and zero.
func (b *bindings) reset(n int) {
	b.vals = slices.Grow(b.vals[:0], n)[:n]
	b.bound = slices.Grow(b.bound[:0], n)[:n]
	clear(b.vals)
	clear(b.bound)
}

// match unifies an atom with a value; returns (undoSlot, ok) where
// undoSlot >= 0 means the slot was freshly bound and must be unbound on
// backtrack. Comparisons canonicalize both sides; fresh bindings keep the
// value as given, so matched rows contribute their original e-node
// identities (which proof production preserves into union justifications).
func (b *bindings) match(g *EGraph, a Atom, v Value) (int, bool) {
	switch a.Kind {
	case AtomVar:
		if b.bound[a.Slot] {
			return -1, g.Find(b.vals[a.Slot]).Bits == g.Find(v).Bits && b.vals[a.Slot].sort == v.sort
		}
		b.vals[a.Slot] = v
		b.bound[a.Slot] = true
		return a.Slot, true
	case AtomLit:
		return -1, a.Lit.sort == v.sort && g.Find(a.Lit).Bits == g.Find(v).Bits
	default:
		return -1, false
	}
}

func (b *bindings) get(g *EGraph, a Atom) (Value, bool) {
	switch a.Kind {
	case AtomVar:
		if !b.bound[a.Slot] {
			return Value{}, false
		}
		return g.Find(b.vals[a.Slot]), true
	case AtomLit:
		return g.Find(a.Lit), true
	default:
		return Value{}, false
	}
}

// Match runs the rule's query and calls yield with a snapshot of the
// bindings for every match. yield returning false stops the search.
func (g *EGraph) Match(r *Rule, yield func(binds []Value) bool) error {
	return g.matchShard(r, 0, -1, yield)
}

// matchShard runs the rule's query restricted to rows [lo, hi) of the
// first premise's table scan (hi < 0 means unrestricted). Partitioning
// [0, n) into contiguous ascending shards and concatenating their yields
// in shard order reproduces Match's sequence exactly, which is what makes
// the parallel match phase deterministic. First premises that do not scan
// — a fully-bound direct lookup, an indexed scan, or a primitive
// evaluation — run entirely in the shard with lo == 0 and yield nothing
// elsewhere.
func (g *EGraph) matchShard(r *Rule, lo, hi int, yield func(binds []Value) bool) error {
	var m matchRun
	m.reset(g, r, r.planOf(), matchSpec{deltaOrd: -1})
	m.yield = yield
	return m.matchShard(lo, hi)
}

// firstPremiseScan reports the scan length (total rows — the shard
// domain) and the live row count of the rule's leading table scan. The
// runner decides how many shards a rule is worth from the live count, so
// heavily-rebuilt tables full of tombstones are not over-split.
func (g *EGraph) firstPremiseScan(r *Rule) (scanLen, live int) {
	if len(r.Premises) == 0 {
		return 0, 0
	}
	if p, ok := r.Premises[0].(*TablePremise); ok {
		t := g.tab(p.Fn)
		return len(t.rows), t.live
	}
	return 0, 0
}

// rulePlan is what matching a rule needs beyond the rule itself. It is
// built once per rule (Rule.planOf) and only read afterwards.
type rulePlan struct {
	// tables lists the indices of the table premises in premise order.
	// The position of an index is the premise's table ordinal, the
	// coordinate system of semi-naive sub-queries and match keys; ord
	// maps back from premise index to ordinal (-1 for eval premises).
	tables []int
	ord    []int
	// full is the full query's evaluation order (declared order), and
	// delta[s] the order of sub-query s after its hoisted delta premise
	// (deltaSeq).
	full  []int
	delta [][]int
	// slots is the number of query slots: one past the highest slot a
	// premise binds. A stored match keeps these; the slots past them
	// belong to action lets.
	slots int
}

// planRule builds r's plan.
func planRule(r *Rule) rulePlan {
	n := len(r.Premises)
	p := rulePlan{tables: make([]int, 0, n), ord: make([]int, n), full: make([]int, n)}
	bind := func(a Atom) {
		if a.Kind == AtomVar {
			p.slots = max(p.slots, a.Slot+1)
		}
	}
	for i, pr := range r.Premises {
		p.full[i], p.ord[i] = i, -1
		switch pr := pr.(type) {
		case *TablePremise:
			p.ord[i] = len(p.tables)
			p.tables = append(p.tables, i)
			for _, a := range pr.Args {
				bind(a)
			}
			bind(pr.Out)
		case *EvalPremise:
			bind(pr.Out)
		}
	}
	p.delta = make([][]int, len(p.tables))
	for s, i := range p.tables {
		p.delta[s] = deltaSeq(r, i)
	}
	return p
}

// deltaSeq plans the evaluation order for the semi-naive sub-query that
// hoists premise `hoist` to the front: the remaining premises, greedily
// ordered so each step prefers the cheapest access path given the
// variables bound so far — a schedulable primitive evaluation, then a
// fully-bound direct lookup, then an indexed scan (some argument or the
// output determined), and a full table scan only when nothing connects.
// Without this, hoisting a late premise would leave the rule's leading
// premises unconstrained and re-scan their whole tables once per frontier
// row. Reordering a conjunctive query never changes its match set, only
// the enumeration order, which the runner's key sort restores; primitive
// premises are only scheduled once their inputs are bound, so the
// declared-order binding contract still holds. Ties break toward declared
// order, keeping the plan deterministic.
func deltaSeq(r *Rule, hoist int) []int {
	bound := make([]bool, r.NumSlots)
	bind := func(a Atom) {
		if a.Kind == AtomVar {
			bound[a.Slot] = true
		}
	}
	known := func(a Atom) bool {
		return a.Kind == AtomLit || bound[a.Slot]
	}
	bindPremise := func(p Premise) {
		switch p := p.(type) {
		case *TablePremise:
			for _, a := range p.Args {
				bind(a)
			}
			bind(p.Out)
		case *EvalPremise:
			bind(p.Out)
		}
	}
	bindPremise(r.Premises[hoist])

	used := make([]bool, len(r.Premises))
	used[hoist] = true
	seq := make([]int, 0, len(r.Premises)-1)
	for len(seq) < len(r.Premises)-1 {
		best, bestScore := -1, 99
		for i, p := range r.Premises {
			if used[i] {
				continue
			}
			score := 99
			switch p := p.(type) {
			case *EvalPremise:
				ready := true
				for _, a := range p.Args {
					if !known(a) {
						ready = false
						break
					}
				}
				if !ready {
					continue // inputs not bound yet; cannot run here
				}
				score = 0
			case *TablePremise:
				argsKnown, anyKnown := true, false
				for _, a := range p.Args {
					if known(a) {
						anyKnown = true
					} else {
						argsKnown = false
					}
				}
				switch {
				case argsKnown:
					score = 1 // direct hash lookup
				case anyKnown || known(p.Out):
					score = 2 // per-column index
				default:
					score = 3 // full scan
				}
			}
			if score < bestScore {
				bestScore, best = score, i
			}
		}
		if best < 0 {
			// Unreachable for well-formed rules (declared order is a valid
			// schedule), but fall back to declared order rather than spin.
			for i := range r.Premises {
				if !used[i] {
					best = i
					break
				}
			}
		}
		seq = append(seq, best)
		used[best] = true
		bindPremise(r.Premises[best])
	}
	return seq
}

var errStopMatch = fmt.Errorf("egraph: match stopped")

// matchSpec selects which slice of a rule's match space one query
// execution covers.
//
// deltaOrd < 0 runs the full (naive) query. deltaOrd == s runs the s-th
// semi-naive sub-query: table premise s restricted to its table's delta
// frontier, premises with ordinal < s restricted to old rows
// (stamp < minStamp), premises with ordinal > s unrestricted. The
// sub-queries for s = 0..k-1 partition exactly the matches that involve
// at least one delta row — each such match is generated once, by the
// sub-query whose ordinal is its first delta premise — and the matches
// with no delta row are the ones the previous iteration already applied.
//
// onlyNew, set on a full query in a semi-naive iteration (the hybrid
// planner's fallback), keeps only the matches that bind at least one delta
// row (stamp >= minStamp): the others are old matches, already applied.
// Old matches are still enumerated and counted, so caps judge every match
// by its position in the full enumeration order.
//
// sel, when non-nil, turns on sampled selectivity collection: every
// sel.every-th top-level row (by global scan/frontier index, so shard
// boundaries do not change what is sampled) opens a traced sub-tree in
// which every premise execution is counted.
type matchSpec struct {
	deltaOrd int
	minStamp uint64
	onlyNew  bool
	sel      *selSink
}

// matchRun is the state of one shard's query execution. A match worker
// reuses one for all its tasks (reset), keeping its buffers.
type matchRun struct {
	g       *EGraph
	r       *Rule
	plan    *rulePlan
	spec    matchSpec
	hoist   int   // premise index of the delta premise; -1 for full match
	seq     []int // evaluation order: premise indices, hoist excluded
	b       bindings
	key     []int32 // matched row slot per table ordinal
	scratch []Value
	scanned int64
	// fresh counts the delta rows the current partial match binds; it is
	// kept only under spec.onlyNew.
	fresh int
	// found counts the matches enumerated; the run stops when it reaches
	// limit (0: no limit).
	found, limit int
	// Each match goes either to out (the runner's task buffer) or, for
	// Match and matchShard, to yield.
	out   *matchBuf
	yield func(binds []Value) bool
	// sel/trace carry sampled selectivity collection: trace is true while
	// the run is inside a sampled top-level row's sub-tree.
	sel   *selSink
	trace bool
}

// matchBuf holds one match task's kept matches without a pointer per
// match: each match's query-slot bits (plan.slots per match), its key
// (semi-naive sub-queries, for the merge's key sort) and its enumeration
// position within the task (onlyNew full queries, for the caps). A rule's
// query slots are typed — each is bound from a table column or a
// primitive's result — so the slots' sorts are recorded once: the task's
// first kept match is the template (tmpl) load copies before writing a
// match's bits. The runner keeps one buffer per task position for the
// whole run.
type matchBuf struct {
	tmpl  []Value
	bits  []uint64
	keys  []int32
	pos   []int32
	n     int // matches kept
	found int // matches enumerated
}

// reset empties b, keeping its storage.
func (b *matchBuf) reset() {
	*b = matchBuf{tmpl: b.tmpl[:0], bits: b.bits[:0], keys: b.keys[:0], pos: b.pos[:0]}
}

// load writes stored match i into binds: the query slots from the stored
// bits and the template's sorts, the remaining slots (action lets) zero.
func (b *matchBuf) load(binds []Value, i, slots int) {
	copy(binds, b.tmpl[:slots])
	for s, bits := range b.bits[i*slots : (i+1)*slots] {
		binds[s].Bits = bits
	}
	clear(binds[slots:])
}

// reset prepares m to run rule r's query slice spec, keeping the buffers
// of m's previous run.
func (m *matchRun) reset(g *EGraph, r *Rule, plan *rulePlan, spec matchSpec) {
	*m = matchRun{
		g: g, r: r, plan: plan, spec: spec, hoist: -1, seq: plan.full,
		b: m.b, key: slices.Grow(m.key[:0], len(plan.tables))[:len(plan.tables)],
		scratch: m.scratch, sel: spec.sel,
	}
	m.b.reset(r.NumSlots)
}

// matchShard runs one shard of the query m was reset to, handing each
// match to m.yield or to m.out, which also records a sub-query match's
// key — the vector of matched row slots per table ordinal. Serial full
// matching enumerates keys in ascending lexicographic order (scans, index
// candidate lists, and frontiers all iterate ascending row slots), so
// sorting any union of sub-query matches by key reproduces the exact
// relative order a naive match would produce. For a full match
// (spec.deltaOrd < 0) lo/hi shard the leading premise's table scan; for a
// sub-query they shard the delta premise's frontier. m.scanned counts the
// rows scanned (loop visits plus direct lookups).
func (m *matchRun) matchShard(lo, hi int) error {
	var err error
	if s := m.spec.deltaOrd; s >= 0 {
		if s >= len(m.plan.tables) {
			return fmt.Errorf("egraph: rule %s: sub-query %d of %d table premises", m.r.Name, s, len(m.plan.tables))
		}
		m.hoist, m.seq = m.plan.tables[s], m.plan.delta[s]
		err = m.runDelta(lo, hi)
	} else {
		err = m.matchFrom(0, lo, hi)
	}
	if err == errStopMatch {
		err = nil
	}
	return err
}

// emit takes one complete match. Match and matchShard hand a copy of the
// bindings to yield. A runner task stores the query slots in its buffer,
// unless spec.onlyNew drops the match for binding no delta row; the match
// counts as found either way. It reports whether the run goes on.
func (m *matchRun) emit() bool {
	m.found++
	if m.yield != nil {
		return m.yield(slices.Clone(m.b.vals))
	}
	if !m.spec.onlyNew || m.fresh > 0 {
		out, vals := m.out, m.b.vals[:m.plan.slots]
		if out.n == 0 {
			out.tmpl = append(out.tmpl, vals...)
		}
		out.bits = reserve(out.bits, len(vals))
		for _, v := range vals {
			out.bits = append(out.bits, v.Bits)
		}
		if m.hoist >= 0 {
			out.keys = append(out.keys, m.key...)
		}
		if m.spec.onlyNew {
			out.pos = append(out.pos, int32(m.found-1))
		}
		out.n++
	}
	return m.found != m.limit
}

// reserve returns s with room for n more elements, at least doubling
// its capacity when it has to grow. Match buffers fill one match at a
// time, and append's gentler growth of large slices would copy them
// several times over.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// freshRow returns 1 when the run tracks delta rows (spec.onlyNew) and
// row is one, 0 otherwise: the amount binding row adds to m.fresh.
func (m *matchRun) freshRow(row *row) int {
	if m.spec.onlyNew && row.stamp >= m.spec.minStamp {
		return 1
	}
	return 0
}

// runDelta drives one semi-naive sub-query: the delta premise is matched
// first against frontier[lo:hi] (binding its variables makes the
// remaining old/unrestricted premises indexable), then the rest of the
// query runs in declared order with the delta premise skipped. Hoisting a
// premise to the front never unbinds an eval premise's inputs — every
// original predecessor still runs first — and cannot change the match
// set of a conjunctive query, only the enumeration order, which the key
// sort restores.
func (m *matchRun) runDelta(lo, hi int) error {
	p := m.r.Premises[m.hoist].(*TablePremise)
	t := m.g.tab(p.Fn)
	fr := t.frontier
	if hi < 0 || hi > len(fr) {
		hi = len(fr)
	}
	for k := lo; k < hi; k++ {
		ri := int(fr[k])
		m.scanned++
		row := &t.rows[ri]
		if m.sel != nil {
			// Sample by global frontier index: k does not depend on shard
			// boundaries, so the traced set is worker-count independent.
			m.trace = k%m.sel.every == 0
			if m.trace {
				m.sel.roots++
				m.noteEntry(m.hoist, p, &m.sel.prem[m.hoist].DeltaScans)
				m.sel.prem[m.hoist].Visits++
			}
		}
		if row.dead {
			continue
		}
		if err := m.matchRow(p, t, ri, m.hoist, 0); err != nil {
			return err
		}
	}
	return nil
}

// matchFrom continues the query at position pos of the evaluation
// sequence. lo/hi restrict the scan of the first position only; recursive
// calls pass the unrestricted range.
func (m *matchRun) matchFrom(pos, lo, hi int) error {
	if pos == len(m.seq) {
		if !m.emit() {
			return errStopMatch
		}
		return nil
	}
	i := m.seq[pos]
	switch p := m.r.Premises[i].(type) {
	case *TablePremise:
		return m.matchTable(pos, i, lo, hi, p)
	case *EvalPremise:
		if lo > 0 {
			return nil // non-scan premise: handled wholly by the first shard
		}
		return m.matchEval(pos, i, p)
	default:
		return fmt.Errorf("egraph: unknown premise type %T", p)
	}
}

// oldOnly reports whether premise i is restricted to pre-delta rows in
// this sub-query.
func (m *matchRun) oldOnly(i int) bool {
	return m.spec.deltaOrd >= 0 && m.plan.ord[i] < m.spec.deltaOrd
}

// args returns the reusable scratch argument buffer; its contents are
// consumed (copied or decoded) by lookups and primitives before any
// recursion, so one buffer per run suffices.
func (m *matchRun) args(n int) []Value {
	if cap(m.scratch) < n {
		m.scratch = make([]Value, n)
	}
	return m.scratch[:n]
}

func (m *matchRun) matchTable(pos, i, lo, hi int, p *TablePremise) error {
	g, b := m.g, &m.b
	// Fast path: all argument atoms already determined — direct lookup.
	allBound := true
	for _, a := range p.Args {
		if a.Kind == AtomVar && !b.bound[a.Slot] {
			allBound = false
			break
		}
	}
	t := g.tab(p.Fn)
	if allBound {
		if lo > 0 {
			return nil // single-lookup premise: first shard owns it
		}
		if m.sel != nil {
			// A fully-bound root (pos 0 of a full query) is a single
			// lookup: it is top-level row 0, which every sampling period
			// includes.
			if pos == 0 && m.hoist < 0 {
				m.trace = true
				m.sel.roots++
			}
			if m.trace {
				m.noteEntry(i, p, &m.sel.prem[i].Lookups)
				m.sel.prem[i].Visits++
			}
		}
		args := m.args(len(p.Args))
		for j, a := range p.Args {
			v, _ := b.get(g, a)
			args[j] = v
		}
		m.scanned++
		ri, ok := t.lookupRow(args)
		if !ok {
			return nil
		}
		row := &t.rows[ri]
		if m.oldOnly(i) && row.stamp >= m.spec.minStamp {
			return nil
		}
		undo, ok := b.match(g, p.Out, row.out)
		if !ok {
			return nil
		}
		if m.trace {
			m.sel.prem[i].Matches++
		}
		m.key[m.plan.ord[i]] = int32(ri)
		fresh := m.freshRow(row)
		m.fresh += fresh
		err := m.matchFrom(pos+1, 0, -1)
		m.fresh -= fresh
		if undo >= 0 {
			b.bound[undo] = false
		}
		return err
	}

	// General path: scan the table, or — when the graph is clean (rows
	// canonical) and some argument or the output is already determined —
	// only the rows sharing that value, via the per-column index. This
	// turns the two-premise joins of rules like matmul associativity from
	// quadratic scans into hash lookups, on whichever side of the join the
	// bound variable lands.
	var candidates []int32
	useIndex := false
	if g.Clean() {
		consider := func(col int, v Value) {
			c := t.buildArgIndex(col).rowsOf(v.Bits)
			if !useIndex || len(c) < len(candidates) {
				candidates = c
				useIndex = true
			}
		}
		for j, a := range p.Args {
			if v, ok := b.get(g, a); ok {
				consider(j, v)
			}
		}
		if v, ok := b.get(g, p.Out); ok {
			consider(len(p.Args), v)
		}
	}
	// Snapshot the current length: actions of other rules must not be
	// visible mid-match (the runner matches before applying, but Match is
	// also usable standalone).
	n := len(t.rows)
	start := 0
	if useIndex {
		if lo > 0 {
			return nil // indexed scan: first shard owns it
		}
		n = len(candidates)
	} else if hi >= 0 {
		start = lo
		if hi < n {
			n = hi
		}
	}
	oldOnly := m.oldOnly(i)
	// rootScan: this scan enumerates the full query's top-level rows, so
	// the per-row sampling decision is made here. Non-root scans inherit
	// the enclosing trace flag for the whole call.
	rootScan := m.sel != nil && pos == 0 && m.hoist < 0
	trc := m.sel != nil && m.trace
	if trc {
		path := &m.sel.prem[i].FullScans
		if useIndex {
			path = &m.sel.prem[i].IndexProbes
		}
		m.noteEntry(i, p, path)
	}
	var undoBuf [argBufLen + 1]int
	undos := undoBuf[:0]
rows:
	for k := start; k < n; k++ {
		ri := k
		if useIndex {
			ri = int(candidates[k])
		}
		m.scanned++
		row := &t.rows[ri]
		if rootScan {
			// Sample by global row index: k runs over the whole table (or
			// candidate list) regardless of sharding, so the traced set —
			// and with it every counter — is worker-count independent.
			trc = k%m.sel.every == 0
			m.trace = trc
			if trc {
				m.sel.roots++
				path := &m.sel.prem[i].FullScans
				if useIndex {
					path = &m.sel.prem[i].IndexProbes
				}
				m.noteEntry(i, p, path)
			}
		}
		if trc {
			m.sel.prem[i].Visits++
		}
		if row.dead || (oldOnly && row.stamp >= m.spec.minStamp) {
			continue
		}
		undos = undos[:0]
		args := t.argsOf(ri)
		for j, a := range p.Args {
			undo, ok := b.match(g, a, g.Find(args[j]))
			if undo >= 0 {
				undos = append(undos, undo)
			}
			if !ok {
				for _, u := range undos {
					b.bound[u] = false
				}
				continue rows
			}
		}
		undo, ok := b.match(g, p.Out, row.out)
		if undo >= 0 {
			undos = append(undos, undo)
		}
		if ok {
			if trc {
				m.sel.prem[i].Matches++
			}
			m.key[m.plan.ord[i]] = int32(ri)
			fresh := m.freshRow(row)
			m.fresh += fresh
			err := m.matchFrom(pos+1, 0, -1)
			m.fresh -= fresh
			if err != nil {
				for _, u := range undos {
					b.bound[u] = false
				}
				return err
			}
		}
		for _, u := range undos {
			b.bound[u] = false
		}
	}
	return nil
}

// matchRow binds premise i's atoms against row ri of t (the hoisted
// delta premise), records its key, and continues the query from nextFrom.
func (m *matchRun) matchRow(p *TablePremise, t *table, ri, i, nextFrom int) error {
	g, b := m.g, &m.b
	var undoBuf [argBufLen + 1]int
	undos := undoBuf[:0]
	args := t.argsOf(ri)
	for j, a := range p.Args {
		undo, ok := b.match(g, a, g.Find(args[j]))
		if undo >= 0 {
			undos = append(undos, undo)
		}
		if !ok {
			for _, u := range undos {
				b.bound[u] = false
			}
			return nil
		}
	}
	undo, ok := b.match(g, p.Out, t.rows[ri].out)
	if undo >= 0 {
		undos = append(undos, undo)
	}
	var err error
	if ok {
		if m.trace {
			m.sel.prem[i].Matches++
		}
		m.key[m.plan.ord[i]] = int32(ri)
		err = m.matchFrom(nextFrom, 0, -1)
	}
	for _, u := range undos {
		b.bound[u] = false
	}
	return err
}

func (m *matchRun) matchEval(pos, i int, p *EvalPremise) error {
	g, b := m.g, &m.b
	if m.sel != nil {
		// An eval premise leading a full query runs once: it is top-level
		// row 0, included under every sampling period.
		if pos == 0 && m.hoist < 0 {
			m.trace = true
			m.sel.roots++
		}
		if m.trace {
			m.sel.prem[i].Execs++
			m.sel.prem[i].Visits++
		}
	}
	args := m.args(len(p.Args))
	for j, a := range p.Args {
		v, ok := b.get(g, a)
		if !ok {
			return fmt.Errorf("egraph: rule %s: primitive %s argument %d unbound (premise ordering)", m.r.Name, p.Prim.Name, j)
		}
		args[j] = v
	}
	out, ok := p.Prim.Apply(g, args)
	if !ok {
		return nil // primitive did not apply; no match through this premise
	}
	undo, ok := b.match(g, p.Out, g.Find(out))
	if !ok {
		if undo >= 0 {
			b.bound[undo] = false
		}
		return nil
	}
	if m.trace {
		m.sel.prem[i].Matches++
	}
	err := m.matchFrom(pos+1, 0, -1)
	if undo >= 0 {
		b.bound[undo] = false
	}
	return err
}

// EvalATerm evaluates an action term under the given bindings, inserting
// e-nodes for constructor applications. Canonicalization goes through
// canonFind: inside the runner's apply phase values resolve against the
// iteration-start snapshot, so the terms a match produces do not depend
// on unions applied earlier in the same batch.
func (g *EGraph) EvalATerm(t *ATerm, binds []Value) (Value, error) {
	switch t.Kind {
	case AVar:
		return g.canonFind(binds[t.Slot]), nil
	case ALit:
		return g.canonFind(t.Lit), nil
	case AApp, AVec:
		// The loop is not shared with evalArgs: escape analysis merges the
		// buffers of all callers inside one recursive cycle.
		var buf [argBufLen]Value
		args := buf[:0]
		for _, a := range t.Args {
			v, err := g.EvalATerm(a, binds)
			if err != nil {
				return Value{}, err
			}
			args = append(args, v)
		}
		if t.Kind == AVec {
			return g.InternVec(t.VecSort, args), nil
		}
		return g.Insert(t.Fn, args...)
	case APrim:
		// The arguments escape through the Prim.Apply function value, so
		// they go on the graph's primitive-argument stack instead of the
		// heap: push, apply, truncate. A nested primitive pushes above
		// them, so the window is taken only once all are evaluated.
		base := len(g.primArgs)
		for _, a := range t.Args {
			v, err := g.EvalATerm(a, binds)
			if err != nil {
				g.primArgs = g.primArgs[:base]
				return Value{}, err
			}
			g.primArgs = append(g.primArgs, v)
		}
		out, ok := t.Prim.Apply(g, g.primArgs[base:])
		g.primArgs = g.primArgs[:base]
		if !ok {
			return Value{}, fmt.Errorf("egraph: primitive %s failed in action", t.Prim.Name)
		}
		return out, nil
	default:
		return Value{}, fmt.Errorf("egraph: unknown action term kind %d", t.Kind)
	}
}

// ApplyActions runs the rule's actions under one match's bindings.
func (g *EGraph) ApplyActions(r *Rule, binds []Value) error {
	for _, act := range r.Actions {
		switch a := act.(type) {
		case *LetAction:
			v, err := g.EvalATerm(a.T, binds)
			if err != nil {
				return err
			}
			binds[a.Slot] = v
		case *UnionAction:
			// Variable endpoints keep the matched row's original identity
			// (bindings are stored raw) so union justifications anchor at
			// the exact e-nodes the rule related.
			va, err := g.evalUnionEndpoint(a.A, binds)
			if err != nil {
				return err
			}
			vb, err := g.evalUnionEndpoint(a.B, binds)
			if err != nil {
				return err
			}
			if _, err := g.UnionWithReason(va, vb, Justification{Kind: "rule", Rule: r.Name}); err != nil {
				return fmt.Errorf("egraph: rule %s: %w", r.Name, err)
			}
		case *SetAction:
			var buf [argBufLen]Value
			args, err := g.evalArgs(buf[:0], a.Args, binds)
			if err != nil {
				return err
			}
			out, err := g.EvalATerm(a.Out, binds)
			if err != nil {
				return err
			}
			if err := g.Set(a.Fn, args, out); err != nil {
				return fmt.Errorf("egraph: rule %s: %w", r.Name, err)
			}
		case *CostAction:
			var buf [argBufLen]Value
			args, err := g.evalArgs(buf[:0], a.Args, binds)
			if err != nil {
				return err
			}
			cv, err := g.EvalATerm(a.Cost, binds)
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
			if _, err := g.EvalATerm(a.T, binds); err != nil {
				return err
			}
		default:
			return fmt.Errorf("egraph: unknown action type %T", act)
		}
	}
	return nil
}

// evalArgs appends the values of ts under binds to dst.
func (g *EGraph) evalArgs(dst []Value, ts []*ATerm, binds []Value) ([]Value, error) {
	for _, t := range ts {
		v, err := g.EvalATerm(t, binds)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// evalUnionEndpoint evaluates a union endpoint preserving the original
// e-node identity of plain variable references (EvalATerm canonicalizes,
// which is right everywhere else but would blur proof anchors).
func (g *EGraph) evalUnionEndpoint(t *ATerm, binds []Value) (Value, error) {
	if t.Kind == AVar {
		return binds[t.Slot], nil
	}
	return g.EvalATerm(t, binds)
}
