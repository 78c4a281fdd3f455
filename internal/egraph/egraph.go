package egraph

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"

	"dialegg/internal/obs/journal"
	"dialegg/internal/unionfind"
)

// EGraph is the equality-saturation database: sorts, function tables, a
// union-find over e-class IDs, and interning pools for strings and vectors.
type EGraph struct {
	sorts map[string]*Sort
	// sortTab numbers the declared sorts: a Value names its sort by its
	// index here (Sort.id). Index 0 is no sort. Clones share the table;
	// it is clipped, so a clone's first declaration copies it.
	sortTab []*Sort
	// funcs holds declared functions in declaration order for deterministic
	// iteration.
	funcs   []*Function
	funcsBy map[string]*Function
	// tables holds each declared function's rows, unstable-cost
	// overrides included, indexed by Function.id. Keeping the storage
	// here rather than on Function leaves sorts, functions and the rules
	// compiled against them immutable, so clones of one graph share them.
	tables []*table
	// declsShared marks sorts and funcsBy as shared with the graph this
	// one was cloned from; the first declaration copies them (ownDecls).
	declsShared bool
	// history, set on clones of a graph that recorded its own journal
	// (RecordHistory), holds that journal as JSON Lines; SetJournal
	// back-fills it. histBuf is the recording graph's buffer.
	history []byte
	histBuf *bytes.Buffer

	uf      *unionfind.UF
	strings *stringPool
	vecs    *vecPool

	// I64, F64, Str, Bool, Unit are the builtin primitive sorts, created by
	// New and shared by all functions of this graph.
	I64, F64, Str, Bool, Unit *Sort

	// unionCount increments on every effective union and mergeCount on
	// every primitive-merge value change; the runner uses both to detect
	// fixpoints.
	unionCount uint64
	mergeCount uint64
	// effects counts graph mutations other than unions: new table rows,
	// primitive-merge value changes, and cost-override installs. The
	// runner's per-rule metrics read unionCount+effects around each match
	// apply to classify it as effective or a no-op.
	effects uint64
	// dirty is set when a union happened since the last Rebuild.
	dirty bool
	// proofs, when non-nil, records union provenance for Explain.
	proofs *proofForest
	// trackOrig makes new tables preserve as-inserted argument tuples
	// (set by EnableExplanations).
	trackOrig bool
	// createdBy maps each e-class element to the constructor application
	// that created it (proof rendering); populated when trackOrig is on.
	createdBy map[uint32]createdRef
	// epoch is the semi-naive matching clock: rows inserted or changed
	// during the current epoch form the delta the next match iteration
	// scans. advanceFrontier closes an epoch.
	epoch uint64
	// journal, when non-nil, receives the mutation event stream (see
	// SetJournal); inRebuild flags events emitted while Rebuild runs so
	// replay can skip them (its own Rebuild regenerates them).
	journal   *journal.Writer
	inRebuild bool
	// iterCur is the graph-lifetime saturation iteration counter: the
	// runner increments it per iteration (monotonic across runs) and rows
	// and unions are stamped with it. ruleCur is the provenance ID of the
	// rule whose actions are currently being applied (0 outside apply),
	// interned in provRules/ruleIDs.
	iterCur   uint32
	ruleCur   uint32
	provRules []string
	ruleIDs   map[string]uint32
	// snapRoots, when non-nil, freezes canonicalization for the apply
	// phase: canonFind resolves eq-sort values through this
	// iteration-start root snapshot instead of the live union-find, so
	// unions performed while applying a batch of matches cannot change
	// the table keys later matches in the same batch compute. This is
	// what makes re-applying an already-applied match a guaranteed
	// no-op, which in turn makes semi-naive matching (which skips those
	// re-applications) bit-identical to naive matching.
	snapRoots []uint32
	// stack is the value stack compiled rule actions run on (exec):
	// an instruction pops its operands from the top and pushes its
	// result. Rules are shared by clones and only read, so the stack is
	// the graph's; clones start with an empty one of their own.
	stack []Value
}

// createdRef locates the e-node whose insertion created a class element.
type createdRef struct {
	fn  *Function
	row int
}

// New returns an empty e-graph with the builtin sorts registered.
func New() *EGraph {
	g := &EGraph{
		sorts:   make(map[string]*Sort),
		sortTab: []*Sort{nil},
		funcsBy: make(map[string]*Function),
		uf:      unionfind.New(),
		strings: newStringPool(),
		vecs:    newVecPool(),
		epoch:   1,
	}
	g.I64 = g.mustAddSort(&Sort{Name: "i64", Kind: KindI64})
	g.F64 = g.mustAddSort(&Sort{Name: "f64", Kind: KindF64})
	g.Str = g.mustAddSort(&Sort{Name: "String", Kind: KindString})
	g.Bool = g.mustAddSort(&Sort{Name: "bool", Kind: KindBool})
	g.Unit = g.mustAddSort(&Sort{Name: "Unit", Kind: KindUnit})
	return g
}

func (g *EGraph) mustAddSort(s *Sort) *Sort {
	if _, dup := g.sorts[s.Name]; dup {
		panic("duplicate sort " + s.Name)
	}
	g.ownDecls()
	g.sorts[s.Name] = s
	s.id = uint32(len(g.sortTab))
	g.sortTab = append(g.sortTab, s)
	return s
}

// SortOf returns the sort of v, a value of g or of a graph g was cloned
// from; nil for the zero Value.
func (g *EGraph) SortOf(v Value) *Sort { return g.sortTab[v.sort] }

// ownDecls gives a clone its own copy of the declaration maps before it
// first declares a sort or function.
func (g *EGraph) ownDecls() {
	if g.declsShared {
		g.sorts = maps.Clone(g.sorts)
		g.funcsBy = maps.Clone(g.funcsBy)
		g.declsShared = false
	}
}

// AddEqSort declares a new equivalence sort (egglog's `sort`/`datatype`).
func (g *EGraph) AddEqSort(name string) (*Sort, error) {
	if _, dup := g.sorts[name]; dup {
		return nil, fmt.Errorf("egraph: sort %q already declared", name)
	}
	if g.journal != nil {
		g.jEmit(journal.Event{Kind: journal.KSort, Name: name})
	}
	return g.mustAddSort(&Sort{Name: name, Kind: KindEq}), nil
}

// VecSortOf returns (declaring on first use) the vector sort over elem.
func (g *EGraph) VecSortOf(elem *Sort) *Sort {
	name := "Vec<" + elem.Name + ">"
	if s, ok := g.sorts[name]; ok {
		return s
	}
	return g.mustAddSort(&Sort{Name: name, Kind: KindVec, Elem: elem})
}

// SortByName looks up a declared sort.
func (g *EGraph) SortByName(name string) (*Sort, bool) {
	s, ok := g.sorts[name]
	return s, ok
}

// Sorts returns all declared sorts sorted by name.
func (g *EGraph) Sorts() []*Sort {
	out := make([]*Sort, 0, len(g.sorts))
	for _, s := range g.sorts {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeclareFunction registers a function. For primitive-output functions a
// nil merge defaults to MergeMustEqual.
func (g *EGraph) DeclareFunction(f *Function) (*Function, error) {
	if _, dup := g.funcsBy[f.Name]; dup {
		return nil, fmt.Errorf("egraph: function %q already declared", f.Name)
	}
	if f.Out == nil {
		return nil, fmt.Errorf("egraph: function %q has no output sort", f.Name)
	}
	if f.Merge == nil {
		f.Merge = MergeMustEqual
	}
	if f.Cost == 0 && f.IsConstructor() {
		f.Cost = 1
	}
	f.id = len(g.tables)
	t := newTable(len(f.Params))
	t.trackOrig = g.trackOrig
	g.tables = append(g.tables, t)
	g.funcs = append(g.funcs, f)
	g.ownDecls()
	g.funcsBy[f.Name] = f
	if g.journal != nil {
		g.jEmit(g.fnEvent(f))
	}
	return f, nil
}

// tab returns the table holding f's rows in g.
func (g *EGraph) tab(f *Function) *table { return g.tables[f.id] }

// FunctionByName looks up a declared function.
func (g *EGraph) FunctionByName(name string) (*Function, bool) {
	f, ok := g.funcsBy[name]
	return f, ok
}

// Functions returns all declared functions in declaration order.
func (g *EGraph) Functions() []*Function { return g.funcs }

// InternString returns the interned string value.
func (g *EGraph) InternString(s string) Value {
	return g.Str.value(uint64(g.strings.intern(s)))
}

// StringOf decodes a KindString value.
func (g *EGraph) StringOf(v Value) string { return g.strings.get(uint32(v.Bits)) }

// InternVec returns the interned vector value over the given element sort.
// Elements are canonicalized first so bit-equality of canonical vec values
// implies element-wise equality.
func (g *EGraph) InternVec(vecSort *Sort, elems []Value) Value {
	var buf [argBufLen]Value
	canon := buf[:0]
	for _, e := range elems {
		canon = append(canon, g.Find(e))
	}
	return vecSort.value(uint64(g.vecs.intern(canon)))
}

// VecElems decodes a KindVec value. The returned slice must not be mutated.
func (g *EGraph) VecElems(v Value) []Value { return g.vecs.get(uint32(v.Bits)) }

// Find canonicalizes a value: eq-sort values are resolved through the
// union-find; vector values are re-interned with canonical elements; other
// primitives are already canonical.
func (g *EGraph) Find(v Value) Value { return g.find(v, nil) }

// beginFrozenApply snapshots every class's canonical root into roots'
// storage and returns the snapshot, so the caller can hand the same
// storage back next iteration. Installed by the saturation runner around
// the apply phase so that table writes key on the iteration-start
// canonicalization regardless of the unions the phase itself performs
// (egg's batch semantics: match on the frozen graph, apply the whole
// batch, then rebuild).
func (g *EGraph) beginFrozenApply(roots []uint32) []uint32 {
	roots = slices.Grow(roots[:0], g.uf.Len())[:g.uf.Len()]
	for i := range roots {
		roots[i] = g.uf.Find(uint32(i))
	}
	g.snapRoots = roots
	return roots
}

// endFrozenApply restores live canonicalization (before Rebuild runs) and
// clears the ambient applying-rule provenance context — it is called on
// every exit from the apply phase, including rule-error aborts.
func (g *EGraph) endFrozenApply() {
	g.snapRoots = nil
	g.ruleCur = 0
}

// canonFind canonicalizes like Find, except while a frozen-apply
// snapshot is installed, where eq-sort values resolve through the
// iteration-start snapshot. Outside the apply phase it is exactly Find.
func (g *EGraph) canonFind(v Value) Value { return g.find(v, g.snapRoots) }

// find canonicalizes v through roots, a frozen-apply snapshot of every
// class's root, or through the union-find when roots is nil. Classes
// created after the snapshot are their own canonical representative (they
// existed in no earlier union). A vector is re-interned when one of its
// elements changes; one whose sort holds no class is canonical as it is.
func (g *EGraph) find(v Value, roots []uint32) Value {
	switch v.kind {
	case KindEq:
		if roots == nil {
			v.Bits = uint64(g.uf.Find(uint32(v.Bits)))
		} else if v.Bits < uint64(len(roots)) {
			v.Bits = uint64(roots[v.Bits])
		}
	case KindVec:
		if !g.sortTab[v.sort].holdsClasses() {
			return v
		}
		elems := g.vecs.get(uint32(v.Bits))
		changed := false
		for _, e := range elems {
			if g.find(e, roots).Bits != e.Bits {
				changed = true
				break
			}
		}
		if changed {
			var buf [argBufLen]Value
			canon := buf[:0]
			for _, e := range elems {
				canon = append(canon, g.find(e, roots))
			}
			v.Bits = uint64(g.vecs.intern(canon))
		}
	}
	return v
}

// Eq reports whether two values are equal modulo the union-find.
func (g *EGraph) Eq(a, b Value) bool {
	if a.sort != b.sort {
		return false
	}
	return g.Find(a).Bits == g.Find(b).Bits
}

func (g *EGraph) newClass(s *Sort) Value {
	return s.value(uint64(g.uf.MakeSet()))
}

// argBufLen is the widest tuple that probes, vectors and keys hold in a
// stack buffer; wider tuples spill to the heap.
const argBufLen = 8

// canonArgs checks args against f's parameter sorts and appends their
// canonical forms to dst. Callers pass a stack buffer, so a probe does
// not allocate.
func (g *EGraph) canonArgs(dst []Value, f *Function, args []Value) ([]Value, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("egraph: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	for i, a := range args {
		if a.sort != f.Params[i].id {
			return nil, fmt.Errorf("egraph: %s arg %d: have sort %s, want %s", f.Name, i, g.SortOf(a), f.Params[i])
		}
		dst = append(dst, g.canonFind(a))
	}
	return dst, nil
}

// Insert adds (or finds) the e-node f(args) and returns its output value.
// For constructors a fresh e-class is created when the node is new. For
// primitive-output functions Insert is a lookup that fails if the row is
// absent; use Set to create such rows.
func (g *EGraph) Insert(f *Function, args ...Value) (Value, error) {
	var buf [argBufLen]Value
	canon, err := g.canonArgs(buf[:0], f, args)
	if err != nil {
		return Value{}, err
	}
	t := g.tab(f)
	ri, entry, ok := t.probe(canon, -1)
	if ok {
		// The row's original identity is returned (not the canonical
		// class): callers compare via Find/Eq, and proofs stay anchored at
		// e-node identities.
		return t.rows[ri].out, nil
	}
	if !f.IsConstructor() && f.Out.Kind != KindUnit {
		return Value{}, fmt.Errorf("egraph: %s(...) not present (primitive-output functions need Set)", f.Name)
	}
	return g.insertNew(f, t, canon, entry), nil
}

// insertNew adds the absent node f(canon), of a constructor or a Unit
// function, as a new row of t and returns its output. entry is where the
// probe that missed it stopped (table.probe).
func (g *EGraph) insertNew(f *Function, t *table, canon []Value, entry int) Value {
	var out Value
	if f.IsConstructor() {
		out = g.newClass(f.Out)
	} else {
		out = g.Unit.value(0)
	}
	t.insert(canon, out, g.epoch, entry)
	g.effects++
	g.stampProvenance(f)
	if g.trackOrig && f.IsConstructor() {
		if g.createdBy == nil {
			g.createdBy = make(map[uint32]createdRef)
		}
		g.createdBy[uint32(out.Bits)] = createdRef{fn: f, row: len(t.rows) - 1}
	}
	if g.journal != nil {
		o := g.encodeVal(out)
		g.jEmit(journal.Event{Kind: journal.KInsert, Fn: f.Name, Args: g.encodeVals(canon), Out: &o})
	}
	return out
}

// Lookup finds the output of f(args) without inserting.
func (g *EGraph) Lookup(f *Function, args ...Value) (Value, bool) {
	var buf [argBufLen]Value
	canon, err := g.canonArgs(buf[:0], f, args)
	if err != nil {
		return Value{}, false
	}
	t := g.tab(f)
	ri, ok := t.lookupRow(canon)
	if !ok {
		return Value{}, false
	}
	return g.Find(t.rows[ri].out), true
}

// Set writes f(args) = out. For primitive-output functions a conflicting
// row is resolved with the function's merge; for eq-sort-output functions
// the old and new outputs are unioned (egglog's merge semantics for
// equivalence sorts).
func (g *EGraph) Set(f *Function, args []Value, out Value) error {
	if out.sort != f.Out.id {
		return fmt.Errorf("egraph: %s output: have sort %s, want %s", f.Name, g.SortOf(out), f.Out)
	}
	var buf [argBufLen]Value
	canon, err := g.canonArgs(buf[:0], f, args)
	if err != nil {
		return err
	}
	return g.setRow(f, canon, g.canonFind(out))
}

// setRow is Set for canonical arguments and output of f's sorts.
func (g *EGraph) setRow(f *Function, canon []Value, out Value) error {
	t := g.tab(f)
	i, entry, ok := t.probe(canon, -1)
	if ok {
		if f.IsConstructor() {
			// The union (when effective) dirties the graph; the next
			// Rebuild detects the row's canonical output change through
			// outCanon and stamps it into the frontier.
			merged, err := g.Union(t.rows[i].out, out)
			if err != nil {
				return fmt.Errorf("egraph: merge %s: %w", f.Name, err)
			}
			t.rows[i].out = merged
			if g.journal != nil {
				o := g.encodeVal(merged)
				g.jEmit(journal.Event{Kind: journal.KRowOut, Fn: f.Name, Args: g.encodeVals(canon), Out: &o})
			}
			return nil
		}
		merged, err := f.Merge(t.rows[i].out, out)
		if err != nil {
			return fmt.Errorf("egraph: merge %s: %w", f.Name, err)
		}
		if merged.Bits != t.rows[i].out.Bits {
			g.mergeRow(f, t, i, merged)
		}
		return nil
	}
	g.setNew(f, t, canon, out, entry)
	return nil
}

// setNew adds the absent row f(canon) = out to t. entry is where the
// probe that missed it stopped (table.probe).
func (g *EGraph) setNew(f *Function, t *table, canon []Value, out Value, entry int) {
	t.insert(canon, out, g.epoch, entry)
	g.effects++
	g.stampProvenance(f)
	if g.journal != nil {
		o := g.encodeVal(out)
		g.jEmit(journal.Event{Kind: journal.KSet, Fn: f.Name, Args: g.encodeVals(canon), Out: &o})
	}
}

// mergeRow stores merged, the value f's primitive merge gave, as the
// output of row i of f's table t. A primitive merge can change the value
// without any union, so the frontier stamp must happen here (no Rebuild
// runs).
func (g *EGraph) mergeRow(f *Function, t *table, i int, merged Value) {
	t.rows[i].out = merged
	t.rows[i].outCanon = merged.Bits
	t.touch(i, g.epoch)
	t.invalidateArgIndex()
	g.effects++
	g.mergeCount++
	if g.journal != nil {
		o := g.encodeVal(merged)
		g.jEmit(journal.Event{Kind: journal.KMerge, Fn: f.Name, Args: g.encodeVals(t.argsOf(i)), Out: &o})
	}
}

// advanceFrontier closes the current epoch: every table's rows touched
// since the previous call become its match frontier, and subsequent
// changes open a new delta. It returns the number of live frontier rows
// and the minimum stamp a row must carry to count as delta.
func (g *EGraph) advanceFrontier() (deltaRows int, minStamp uint64) {
	minStamp = g.epoch
	for _, t := range g.tables {
		deltaRows += t.rotateFrontier()
	}
	g.epoch++
	return deltaRows, minStamp
}

// TotalRows counts live rows across every table (constructors, analyses,
// and relations); the saturation runner uses it for fixpoint detection.
func (g *EGraph) TotalRows() int {
	n := 0
	for _, t := range g.tables {
		n += t.live
	}
	return n
}

// SetNodeCost installs an extraction-cost override for the specific e-node
// f(args); this implements the paper's `unstable-cost` action (§6.2).
// Costs below 1 are clamped to 1 to keep extraction well-founded (a node
// must cost strictly more than each of its children). The override lives
// on the node's row; a node with no row is inserted first, as evaluating
// the action term (f args) would insert it.
func (g *EGraph) SetNodeCost(f *Function, args []Value, cost int64) error {
	if !f.IsConstructor() {
		return fmt.Errorf("egraph: unstable-cost on non-constructor %s", f.Name)
	}
	var buf [argBufLen]Value
	canon, err := g.canonArgs(buf[:0], f, args)
	if err != nil {
		return err
	}
	g.setCost(f, canon, cost)
	return nil
}

// setCost is SetNodeCost for a constructor and canonical arguments of its
// sorts.
func (g *EGraph) setCost(f *Function, canon []Value, cost int64) {
	if cost < 1 {
		cost = 1
	}
	t := g.tab(f)
	i, entry, ok := t.probe(canon, -1)
	if !ok {
		g.insertNew(f, t, canon, entry)
		i = len(t.rows) - 1
	}
	if !t.rows[i].keepCheaper(cost) {
		return
	}
	g.effects++
	if g.journal != nil {
		g.jEmit(journal.Event{Kind: journal.KCost, Fn: f.Name, Args: g.encodeVals(canon), Cost: cost})
	}
}

// Union merges the e-classes of a and b (both eq-sort values of the same
// sort) and returns the surviving canonical value.
func (g *EGraph) Union(a, b Value) (Value, error) {
	return g.UnionWithReason(a, b, Justification{Kind: "explicit"})
}

// UnionWithReason is Union carrying provenance for proof production: when
// explanations are enabled, the justification becomes the label of this
// merge in the proof forest.
func (g *EGraph) UnionWithReason(a, b Value, j Justification) (Value, error) {
	if a.sort != b.sort {
		return Value{}, fmt.Errorf("egraph: union across sorts %s and %s", g.SortOf(a), g.SortOf(b))
	}
	if a.kind != KindEq {
		if a.Bits != b.Bits {
			return Value{}, fmt.Errorf("egraph: union of distinct primitive values of sort %s", g.SortOf(a))
		}
		return a, nil
	}
	ra, rb := g.uf.Find(uint32(a.Bits)), g.uf.Find(uint32(b.Bits))
	if ra == rb {
		a.Bits = uint64(ra)
		return a, nil
	}
	if j.Iter == 0 {
		j.Iter = int(g.iterCur)
	}
	if g.journal != nil {
		ea, eb := g.encodeVal(a), g.encodeVal(b)
		g.jEmit(journal.Event{
			Kind: journal.KUnion, A: &ea, B: &eb,
			CanonA: ra, CanonB: rb, Just: g.encodeJust(j),
		})
	}
	g.recordUnion(uint32(a.Bits), uint32(b.Bits), j)
	root := g.uf.Union(ra, rb)
	g.unionCount++
	g.dirty = true
	a.Bits = uint64(root)
	return a, nil
}

// UnionCount returns the number of effective unions performed so far; the
// saturation runner compares it before/after an iteration to detect a
// fixpoint.
func (g *EGraph) UnionCount() uint64 { return g.unionCount }

// NumClasses returns the number of live e-classes (canonical roots in
// use): the classes ever made less the effective unions. Every class is
// born with the constructor row Insert makes for it, and a row dies only
// when Rebuild unions it into a congruent live row, so each canonical
// root keeps a live row.
func (g *EGraph) NumClasses() int { return g.uf.Len() - int(g.unionCount) }

// NumNodes returns the number of live e-nodes across all constructor
// tables.
func (g *EGraph) NumNodes() int {
	n := 0
	for _, f := range g.funcs {
		if f.IsConstructor() {
			n += g.tab(f).live
		}
	}
	return n
}

// ForEachRow calls fn for every live row of f's table in insertion order
// with canonical args/out. The callback must not modify the graph. args
// is a window into the table's argument block: it must not be mutated,
// and it holds the row's arguments only until the table next changes, so
// a caller that keeps it past that copies it.
func (g *EGraph) ForEachRow(f *Function, fn func(args []Value, out Value) bool) {
	t := g.tab(f)
	for i := range t.rows {
		if t.rows[i].dead {
			continue
		}
		if !fn(t.argsOf(i), t.rows[i].out) {
			return
		}
	}
}

// Rebuild restores congruence closure: it re-canonicalizes every row of
// every table and merges the outputs of rows that become identical, looping
// until no further unions occur. It returns the number of passes performed.
func (g *EGraph) Rebuild() int {
	if g.journal != nil {
		g.jEmit(journal.Event{Kind: journal.KRebuildBegin})
		g.inRebuild = true
	}
	passes := 0
	for {
		passes++
		changed := false
		for _, f := range g.funcs {
			if g.rebuildTable(f) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Tables dominated by tombstones are worth compacting. rebuildTable
	// marked stale the column indexes of each table whose rows it changed.
	for _, t := range g.tables {
		t.maybeCompact()
	}
	g.dirty = false
	if g.journal != nil {
		g.inRebuild = false
		g.jEmit(journal.Event{Kind: journal.KRebuildEnd, Passes: passes})
	}
	return passes
}

// Clean reports whether no unions happened since the last Rebuild, i.e.
// every stored row is canonical (matching requires it).
func (g *EGraph) Clean() bool { return !g.dirty }

// rebuildTable re-canonicalizes f's rows once and merges the rows that
// collide; it reports whether a row's arguments changed. A table whose
// rows it re-keys, re-points (outCanon) or kills has its column indexes
// marked stale; the others keep theirs.
func (g *EGraph) rebuildTable(f *Function) bool {
	t := g.tab(f)
	changed, moved := false, false
	for i := range t.rows {
		r := &t.rows[i]
		if r.dead {
			continue
		}
		stale := false
		args := t.argsOf(i)
		for j, a := range args {
			c := g.Find(a)
			if c.Bits != a.Bits {
				args[j] = c
				stale = true
			}
		}
		// r.out is deliberately left at its original identity: callers
		// canonicalize through Find, and proof production (Explain) is
		// anchored at original e-node IDs. The cached canonical bits are
		// refreshed instead — a row whose output class was merged away is
		// part of the semi-naive delta even though no argument moved, or
		// output-side joins against it would be missed.
		if oc := g.Find(r.out).Bits; oc != r.outCanon {
			r.outCanon = oc
			t.touch(i, g.epoch)
			moved = true
		}
		if !stale {
			continue
		}
		changed, moved = true, true
		t.touch(i, g.epoch)
		// A stale entry of row i itself can lie on its new key's probe
		// path; returning it would hide a congruence, so skip i.
		if j, _, ok := t.probe(args, i); ok {
			// Collision: merge outputs into the existing row, kill this one.
			other := &t.rows[j]
			if f.IsConstructor() {
				just := Justification{Kind: "explicit"}
				if g.proofs != nil {
					argsA, argsB := t.origOf(j), t.origOf(i)
					if argsA == nil {
						argsA = t.argsOf(j)
					}
					if argsB == nil {
						argsB = args
					}
					just = Justification{
						Kind:  "congruence",
						Fn:    f,
						ArgsA: append([]Value(nil), argsA...),
						ArgsB: append([]Value(nil), argsB...),
					}
				}
				if _, err := g.UnionWithReason(other.out, r.out, just); err != nil {
					_ = err // outputs of congruent rows share a sort; cannot fail
				}
			} else if f.Out.Kind != KindUnit {
				merged, err := f.Merge(other.out, r.out)
				if err == nil && merged.Bits != other.out.Bits {
					other.out = merged
					other.outCanon = merged.Bits
					t.touch(j, g.epoch)
				}
				// A merge error during rebuild means two congruent
				// applications disagreed; keep the existing value. This can
				// only happen with MergeMustEqual misuse and is harmless
				// for the analyses in this repo (they are monotone).
			}
			other.keepCheaper(r.cost)
			r.dead = true
			t.live--
		} else {
			t.addEntry(i)
		}
	}
	if moved {
		t.invalidateArgIndex()
	}
	return changed
}
