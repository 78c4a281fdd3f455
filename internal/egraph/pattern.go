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
// a buffer it reuses for the next application. In an action that buffer
// is the graph's value stack, so Apply must not run rule actions on g.
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

// ATerm is a (possibly nested) term of a rule action. Actions are compiled
// into instructions before they run (rulePlan.compileActions).
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
// once it has been matched or applied.
type Rule struct {
	Name     string
	Premises []Premise
	Actions  []Action
	// NumSlots is the size of the binding array (query variables plus
	// action lets).
	NumSlots int

	// plan is built on the rule's first match or application (planOf) and
	// read by every later run, including the runs of graphs cloned from
	// one another, which share their rules.
	planOnce sync.Once
	plan     rulePlan
}

// planOf returns r's plan, building it on first use.
func (r *Rule) planOf() *rulePlan {
	r.planOnce.Do(func() { r.plan = planRule(r) })
	return &r.plan
}

// Match runs the rule's query and calls yield with a snapshot of the
// bindings for every match. yield returning false stops the search. The
// graph must be rebuilt since its last union (Clean): matching compares
// the canonical bits rows hold.
func (g *EGraph) Match(r *Rule, yield func(binds []Value) bool) error {
	return g.matchShard(r, 0, -1, yield)
}

// matchShard runs the rule's query restricted to rows [lo, hi) of the
// first premise's table scan (hi < 0 means unrestricted). Partitioning
// [0, n) into contiguous ascending shards and concatenating their yields
// in shard order reproduces Match's sequence exactly, which is what makes
// the parallel match phase deterministic. First steps that do not scan
// — a direct lookup, an index probe, or a primitive evaluation — run
// entirely in the shard with lo == 0 and yield nothing elsewhere.
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

// rulePlan is a rule's compiled query and actions: the full query and
// each semi-naive sub-query as a flat list of steps, and the actions as a
// flat list of instructions. It is built once per rule (Rule.planOf) and
// only read afterwards.
type rulePlan struct {
	// tables lists the indices of the table premises in premise order.
	// The position of an index is the premise's table ordinal, the
	// coordinate system of semi-naive sub-queries and match keys.
	tables []int
	// full runs the premises in declared order. delta[s] is sub-query s:
	// a scan of table premise s's frontier, then the other premises in
	// the order compile picks.
	full  []step
	delta [][]step
	// lits holds the literal atoms the steps read. A run resolves them
	// once (matchRun.lits): an eq-sort literal's class can be merged after
	// the plan is built.
	lits []Value
	// slots is the number of query slots: one past the highest slot a
	// premise binds; the slots past them belong to action lets.
	slots int
	// acts is the actions' code (compileActions) and keep the query
	// slots it reads, ascending: a stored match keeps only these.
	acts []instr
	keep []int32
}

// stepKind is a step's access path.
type stepKind uint8

// The first four are in the order a sub-query prefers them (compile).
const (
	// stepEval applies a primitive to bound values.
	stepEval stepKind = iota
	// stepLookup finds the one row whose arguments are all bound.
	stepLookup
	// stepProbe visits the rows holding a bound column's value, through
	// the index of whichever bound column lists the fewest rows.
	stepProbe
	// stepScan visits every row of the table (no column is bound).
	stepScan
	// stepFrontier visits the table's delta frontier: it opens a
	// sub-query.
	stepFrontier
)

// step is one premise of a compiled query. Which of the premise's
// columns are bound on entry is fixed by the steps before it, and with it
// the step's access path and what it does with each column of a row.
type step struct {
	kind stepKind
	// prem is the premise's declared index, which keys its premise
	// record (RuleStats.Premises).
	prem int
	// fn is a table step's function and ord its table ordinal. old
	// restricts the step to rows stamped before the iteration's delta: its
	// ordinal is below the sub-query's.
	fn  *Function
	ord int
	old bool
	// keys lists a table step's columns bound on entry, in column order
	// (arguments, then the output at Arity()), and where their values
	// come from: a lookup's key is its first Arity() keys, a probe picks
	// its candidates among them.
	keys []colKey
	// ops matches a row's columns: first the columns bound on entry, then
	// the rest in column order. A lookup has only its output's op, since
	// the lookup matched its arguments. An eval step's one op is its
	// output's.
	ops []colOp
	// prim and in are an eval step's primitive and its arguments' sources;
	// unbound is the first argument no earlier step binds (-1: none),
	// which makes reaching the step an error.
	prim    *Prim
	in      []int32
	unbound int
}

// colKey is a column bound on entry and its source: a query slot
// (src >= 0) or literal ^src of the plan.
type colKey struct{ col, src int32 }

// opKind is what a step does with one column of a row.
type opKind uint8

const (
	// opBind stores the value in a slot no earlier column bound.
	opBind opKind = iota
	// opCheck requires the value to equal a bound slot's.
	opCheck
	// opLit requires the value to equal a literal (arg is its index).
	opLit
)

// colOp is one column's op: col is the column (Arity() is the output)
// and arg the slot, or the literal index of an opLit.
type colOp struct {
	kind     opKind
	col, arg int32
}

// planRule builds r's plan.
func planRule(r *Rule) rulePlan {
	var p rulePlan
	ord := make([]int, len(r.Premises))
	for i, pr := range r.Premises {
		ord[i] = -1
		switch pr := pr.(type) {
		case *TablePremise:
			ord[i] = len(p.tables)
			p.tables = append(p.tables, i)
			for _, a := range pr.Args {
				p.noteSlot(a)
			}
			p.noteSlot(pr.Out)
		case *EvalPremise:
			p.noteSlot(pr.Out)
		}
	}
	p.full = p.compile(r, ord, -1)
	p.delta = make([][]step, len(p.tables))
	for s := range p.tables {
		p.delta[s] = p.compile(r, ord, s)
	}
	p.compileActions(r)
	return p
}

// query returns the steps of sub-query sub, or of the full query when
// sub < 0.
func (p *rulePlan) query(sub int) []step {
	if sub < 0 {
		return p.full
	}
	return p.delta[sub]
}

// noteSlot counts a's slot among the query slots.
func (p *rulePlan) noteSlot(a Atom) {
	if a.Kind == AtomVar {
		p.slots = max(p.slots, a.Slot+1)
	}
}

// compile builds the steps of r's full query (sub < 0), which evaluates
// the premises in declared order, or of sub-query sub, which scans the
// frontier of table ordinal sub and then takes, at each step, the premise
// with the cheapest access path given the slots bound so far: a primitive
// whose inputs are bound, then a direct lookup, then an index probe, and a
// full scan only when nothing connects; ties go to declared order. Without
// that order, hoisting a late premise would leave the rule's leading
// premises unconstrained and re-scan their whole tables once per frontier
// row. Reordering a conjunctive query never changes its match set, only
// the enumeration order, which the runner's key sort restores. ord maps a
// premise index to its table ordinal.
func (p *rulePlan) compile(r *Rule, ord []int, sub int) []step {
	bound := make([]bool, r.NumSlots)
	known := func(a Atom) bool { return a.Kind == AtomLit || bound[a.Slot] }
	unknown := func(a Atom) bool { return !known(a) }
	// path is the access path premise i takes with the slots bound so far;
	// a primitive with an unbound input is not ready to run.
	path := func(i int) (kind stepKind, ready bool) {
		switch pr := r.Premises[i].(type) {
		case *EvalPremise:
			return stepEval, !slices.ContainsFunc(pr.Args, unknown)
		case *TablePremise:
			switch {
			case !slices.ContainsFunc(pr.Args, unknown):
				return stepLookup, true
			case known(pr.Out) || slices.ContainsFunc(pr.Args, known):
				return stepProbe, true
			}
		}
		return stepScan, true
	}
	used := make([]bool, len(r.Premises))
	// next picks the premise of step k.
	next := func(k int) int {
		switch {
		case sub < 0:
			return k
		case k == 0:
			return p.tables[sub]
		}
		best, bestKind := -1, stepScan+1
		for i := range r.Premises {
			if used[i] {
				continue
			}
			if kind, ready := path(i); ready && kind < bestKind {
				best, bestKind = i, kind
			}
		}
		if best < 0 {
			// Only primitives with unbound inputs are left: take them in
			// declared order, and reaching one is an error.
			best = slices.Index(used, false)
		}
		return best
	}
	// key names the source of column col's atom, which is bound on entry.
	key := func(col int, a Atom) colKey {
		if a.Kind == AtomLit {
			p.lits = append(p.lits, a.Lit)
			return colKey{col: int32(col), src: ^int32(len(p.lits) - 1)}
		}
		return colKey{col: int32(col), src: int32(a.Slot)}
	}
	// check compiles a column bound on entry: compare with its source.
	check := func(k colKey) colOp {
		if k.src < 0 {
			return colOp{kind: opLit, col: k.col, arg: ^k.src}
		}
		return colOp{kind: opCheck, col: k.col, arg: k.src}
	}
	// bind compiles a column whose variable is unbound on entry: the
	// first such column of the variable binds it, the rest compare.
	bind := func(col int, a Atom) colOp {
		if bound[a.Slot] {
			return colOp{kind: opCheck, col: int32(col), arg: int32(a.Slot)}
		}
		bound[a.Slot] = true
		return colOp{kind: opBind, col: int32(col), arg: int32(a.Slot)}
	}
	steps := make([]step, len(r.Premises))
	for k := range steps {
		i := next(k)
		used[i] = true
		st := &steps[k]
		st.prem = i
		st.kind, _ = path(i)
		switch pr := r.Premises[i].(type) {
		case *EvalPremise:
			st.prim, st.unbound = pr.Prim, -1
			for j, a := range pr.Args {
				if !known(a) {
					if st.unbound < 0 {
						st.unbound = j
					}
					st.in = append(st.in, 0)
					continue
				}
				st.in = append(st.in, key(j, a).src)
			}
			if known(pr.Out) {
				st.ops = []colOp{check(key(0, pr.Out))}
			} else {
				st.ops = []colOp{bind(0, pr.Out)}
			}
		case *TablePremise:
			st.fn, st.ord = pr.Fn, ord[i]
			st.old = sub >= 0 && st.ord < sub
			if k == 0 && sub >= 0 {
				st.kind = stepFrontier
			}
			cols := append(slices.Clip(pr.Args), pr.Out)
			entry := make([]bool, len(cols))
			for j, a := range cols {
				if entry[j] = known(a); entry[j] {
					st.keys = append(st.keys, key(j, a))
				}
			}
			// The columns bound on entry filter first; a lookup has
			// matched its arguments already.
			for _, c := range st.keys {
				if st.kind != stepLookup || int(c.col) == len(pr.Args) {
					st.ops = append(st.ops, check(c))
				}
			}
			for j, a := range cols {
				if !entry[j] {
					st.ops = append(st.ops, bind(j, a))
				}
			}
		}
	}
	return steps
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
type matchSpec struct {
	deltaOrd int
	minStamp uint64
	onlyNew  bool
}

// stepCount is one step's work in a query execution: the rows it visited
// (candidates tested; one per execution of a lookup or an eval) and those
// that passed it.
type stepCount struct{ visits, passes int64 }

// matchRun is the state of one shard's query execution. A match worker
// reuses one for all its tasks (reset), keeping its buffers.
//
// Each slot a step binds holds the value as its row stores it (vals: a
// row's output keeps its original e-node, which proofs anchor at) and
// that value's canonical bits (canon), which later steps compare. A slot
// is bound by one step only and read only after it, so backtracking
// needs no undo.
type matchRun struct {
	g     *EGraph
	r     *Rule
	plan  *rulePlan
	spec  matchSpec
	steps []step
	vals  []Value
	canon []uint64
	// lits holds the plan's literals, canonicalized for this run.
	lits    []Value
	key     []int32 // matched row slot per table ordinal
	scratch []Value
	// count holds each step's visits and passes, indexed like steps.
	count []stepCount
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
}

// matchBuf holds one match task's kept matches without a pointer per
// match: the bits of each match's slots that the rule's actions read
// (plan.keep), its key (semi-naive sub-queries, for the merge's key sort)
// and its enumeration position within the task (onlyNew full queries,
// for the caps). A rule's query slots are typed — each is bound from a
// table column or a primitive's result — so the slots' sorts are recorded
// once: the task's first kept match is the template (tmpl) load copies
// before writing a match's bits. With RunConfig.Selectivity it also holds
// a copy of the task's step counters, which the runner folds serially
// after the match phase. The runner keeps one buffer per task position
// for the whole run, and runs reuse them (runScratch).
type matchBuf struct {
	tmpl  []Value
	bits  []uint64
	keys  []int32
	pos   []int32
	count []stepCount
	n     int // matches kept
	found int // matches enumerated
}

// reset empties b, keeping its storage.
func (b *matchBuf) reset() {
	*b = matchBuf{tmpl: b.tmpl[:0], bits: b.bits[:0], keys: b.keys[:0], pos: b.pos[:0], count: b.count[:0]}
}

// load writes stored match i into binds: the kept query slots from the
// stored bits and the template's sorts, the slots past the query's
// (action lets) zero. The other query slots are left as they are: the
// actions do not read them.
func (b *matchBuf) load(binds []Value, i int, p *rulePlan) {
	bits := b.bits[i*len(p.keep) : (i+1)*len(p.keep)]
	for j, s := range p.keep {
		v := b.tmpl[j]
		v.Bits = bits[j]
		binds[s] = v
	}
	clear(binds[p.slots:])
}

// reset prepares m to run rule r's query slice spec, keeping the buffers
// of m's previous run.
func (m *matchRun) reset(g *EGraph, r *Rule, plan *rulePlan, spec matchSpec) {
	*m = matchRun{
		g: g, r: r, plan: plan, spec: spec,
		vals:    slices.Grow(m.vals[:0], r.NumSlots)[:r.NumSlots],
		canon:   slices.Grow(m.canon[:0], r.NumSlots)[:r.NumSlots],
		lits:    m.lits[:0],
		key:     slices.Grow(m.key[:0], len(plan.tables))[:len(plan.tables)],
		scratch: m.scratch,
		count:   slices.Grow(m.count[:0], len(r.Premises))[:len(r.Premises)],
	}
	clear(m.vals)
	clear(m.count)
	for _, v := range plan.lits {
		m.lits = append(m.lits, g.Find(v))
	}
}

// matchShard runs one shard of the query m was reset to, handing each
// match to m.yield or to m.out, which also records a sub-query match's
// key — the vector of matched row slots per table ordinal. Serial full
// matching enumerates keys in ascending lexicographic order (scans, index
// candidate lists, and frontiers all iterate ascending row slots), so
// sorting any union of sub-query matches by key reproduces the exact
// relative order a naive match would produce. For a full match
// (spec.deltaOrd < 0) lo/hi shard the leading premise's table scan; for a
// sub-query they shard the delta premise's frontier. m.count counts each
// step's visits and passes.
func (m *matchRun) matchShard(lo, hi int) error {
	if m.g.dirty {
		return fmt.Errorf("egraph: rule %s: match needs a graph rebuilt since its last union", m.r.Name)
	}
	if s := m.spec.deltaOrd; s >= len(m.plan.tables) {
		return fmt.Errorf("egraph: rule %s: sub-query %d of %d table premises", m.r.Name, s, len(m.plan.tables))
	}
	m.steps = m.plan.query(m.spec.deltaOrd)
	err := m.run(0, lo, hi)
	if err == errStopMatch {
		err = nil
	}
	return err
}

// emit takes one complete match. Match and matchShard hand a copy of the
// bindings to yield. A runner task stores the kept slots in its buffer,
// unless spec.onlyNew drops the match for binding no delta row; the match
// counts as found either way. It reports whether the run goes on.
func (m *matchRun) emit() bool {
	m.found++
	if m.yield != nil {
		return m.yield(slices.Clone(m.vals))
	}
	if !m.spec.onlyNew || m.fresh > 0 {
		out, keep := m.out, m.plan.keep
		if out.n == 0 {
			for _, s := range keep {
				out.tmpl = append(out.tmpl, m.vals[s])
			}
		}
		out.bits = reserve(out.bits, len(keep))
		for _, s := range keep {
			out.bits = append(out.bits, m.vals[s].Bits)
		}
		if m.spec.deltaOrd >= 0 {
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

// args returns the reusable scratch argument buffer; its contents are
// consumed (by a lookup or a primitive) before the run goes on to the
// next step, so one buffer per run suffices.
func (m *matchRun) args(n int) []Value {
	if cap(m.scratch) < n {
		m.scratch = make([]Value, n)
	}
	return m.scratch[:n]
}

// value returns the canonical value a source names.
func (m *matchRun) value(src int32) Value {
	if src < 0 {
		return m.lits[^src]
	}
	v := m.vals[src]
	v.Bits = m.canon[src]
	return v
}

// matchVal runs op on a value v whose canonical bits are cb.
func (m *matchRun) matchVal(op colOp, v Value, cb uint64) bool {
	switch op.kind {
	case opBind:
		m.vals[op.arg], m.canon[op.arg] = v, cb
		return true
	case opCheck:
		return m.canon[op.arg] == cb && m.vals[op.arg].sort == v.sort
	default:
		l := &m.lits[op.arg]
		return l.Bits == cb && l.sort == v.sort
	}
}

// matchCols runs st's column ops on row ri of t. Rows are canonical, so an
// argument's bits are its class and outCanon is the output's.
func (m *matchRun) matchCols(st *step, t *table, ri int) bool {
	row, args := &t.rows[ri], t.argsOf(ri)
	for _, op := range st.ops {
		v, cb := row.out, row.outCanon
		if int(op.col) < len(args) {
			v = args[op.col]
			cb = v.Bits
		}
		if !m.matchVal(op, v, cb) {
			return false
		}
	}
	return true
}

// rowsScanned is the rows the run's table steps visited: scan loop
// iterations plus direct lookups.
func (m *matchRun) rowsScanned() int64 {
	var n int64
	for k := range m.steps {
		if m.steps[k].kind != stepEval {
			n += m.count[k].visits
		}
	}
	return n
}

// run executes the query from step k on; lo/hi restrict the rows of step
// k only. A lookup or an eval yields at most one row, so run goes through
// them in a loop. A step that visits several rows (scan, probe,
// frontier) continues the query from each row it matches.
func (m *matchRun) run(k, lo, hi int) error {
	fresh := 0 // delta rows this call's lookups bound (spec.onlyNew)
	var err error
steps:
	for ; k < len(m.steps); k++ {
		st := &m.steps[k]
		switch st.kind {
		case stepEval, stepLookup:
			if lo > 0 {
				break steps // not a scan: handled wholly by the first shard
			}
			c := &m.count[k]
			c.visits++
			ok := false
			if st.kind == stepEval {
				ok, err = m.eval(st)
			} else if row := m.lookup(st); row != nil {
				ok = true
				if m.spec.onlyNew && row.stamp >= m.spec.minStamp {
					m.fresh++
					fresh++
				}
			}
			if !ok {
				break steps
			}
			c.passes++
			lo, hi = 0, -1 // only the query's first step is sharded
		default:
			err = m.scan(k, st, lo, hi)
			break steps
		}
	}
	if k == len(m.steps) && !m.emit() {
		err = errStopMatch
	}
	m.fresh -= fresh
	return err
}

// descend records row ri as the match of step k, which visits several
// rows, and runs the rest of the query.
func (m *matchRun) descend(k int, st *step, row *row, ri int) error {
	m.key[st.ord] = int32(ri)
	if !m.spec.onlyNew || row.stamp < m.spec.minStamp {
		return m.run(k+1, 0, -1)
	}
	m.fresh++
	err := m.run(k+1, 0, -1)
	m.fresh--
	return err
}

// eval applies an eval step's primitive and matches its output. It
// reports whether the query goes on.
func (m *matchRun) eval(st *step) (bool, error) {
	if st.unbound >= 0 {
		return false, fmt.Errorf("egraph: rule %s: primitive %s argument %d unbound (premise ordering)", m.r.Name, st.prim.Name, st.unbound)
	}
	args := m.args(len(st.in))
	for j, src := range st.in {
		args[j] = m.value(src)
	}
	out, ok := st.prim.Apply(m.g, args)
	if !ok {
		return false, nil // primitive did not apply; no match through this premise
	}
	out = m.g.Find(out)
	return m.matchVal(st.ops[0], out, out.Bits), nil
}

// lookup finds the one row a lookup step's bound arguments name and
// records it as the step's match; it returns nil when the row is absent
// or does not match.
func (m *matchRun) lookup(st *step) *row {
	t := m.g.tab(st.fn)
	key := m.args(t.arity)
	for j := range key {
		key[j] = m.value(st.keys[j].src)
	}
	ri, ok := t.lookupRow(key)
	if !ok {
		return nil
	}
	row := &t.rows[ri]
	if (st.old && row.stamp >= m.spec.minStamp) || !m.matchCols(st, t, ri) {
		return nil
	}
	m.key[st.ord] = int32(ri)
	return row
}

// scan visits the rows of a step that may match several: a scan step's
// rows [lo, hi) of the table, a frontier step's [lo, hi) of the frontier,
// or a probe step's candidates.
func (m *matchRun) scan(k int, st *step, lo, hi int) error {
	t := m.g.tab(st.fn)
	// Snapshot the current length: actions must not be visible
	// mid-match (the runner matches before applying, but Match is also
	// usable standalone).
	n, start := len(t.rows), 0
	var list []int32 // the slots visited, unless the step scans the table
	switch st.kind {
	case stepProbe:
		if lo > 0 {
			return nil // index probe: the first shard owns it
		}
		list = m.candidates(st, t)
		n = len(list)
	case stepFrontier:
		list = t.frontier
		n = len(list)
	}
	if hi >= 0 && st.kind != stepProbe {
		start, n = lo, min(hi, n)
	}
	// The loop counts in locals; the steps it descends into count their
	// own rows.
	var visits, passes int64
	var err error
	for i := start; i < n && err == nil; i++ {
		ri := i
		if st.kind != stepScan {
			ri = int(list[i])
		}
		visits++
		row := &t.rows[ri]
		if row.dead || (st.old && row.stamp >= m.spec.minStamp) || !m.matchCols(st, t, ri) {
			continue
		}
		passes++
		err = m.descend(k, st, row, ri)
	}
	c := &m.count[k]
	c.visits += visits
	c.passes += passes
	return err
}

// candidates returns the rows a probe step visits: the index list of
// whichever bound column holds the fewest rows, the first such column on
// a tie. The index is built on first use in the match phase; rows are
// canonical, so a bound value's canonical bits key it.
func (m *matchRun) candidates(st *step, t *table) []int32 {
	var best []int32
	for j, key := range st.keys {
		bits := m.value(key.src).Bits
		rows := t.buildArgIndex(int(key.col)).rowsOf(bits)
		if j == 0 || len(rows) < len(best) {
			best = rows
			if len(best) == 0 {
				break
			}
		}
	}
	return best
}
