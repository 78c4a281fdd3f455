package egraph

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
)

// MergeFn resolves a conflict when two table rows with the same canonical
// arguments have different primitive outputs. It returns the value to keep.
type MergeFn func(old, new Value) (Value, error)

// MergeMustEqual is the default merge for primitive-output functions: a
// conflicting Set is an error (mirrors egglog's default no-merge behaviour).
func MergeMustEqual(old, new Value) (Value, error) {
	if old.Bits != new.Bits {
		return old, fmt.Errorf("conflicting values for functional dependency: %v vs %v", old.Bits, new.Bits)
	}
	return old, nil
}

// MergeOverwrite keeps the newest value.
func MergeOverwrite(_, new Value) (Value, error) { return new, nil }

// MergeMinI64 keeps the smaller of two i64 outputs. Used for cost tables
// and descending-lattice analyses.
func MergeMinI64(old, new Value) (Value, error) {
	if new.AsI64() < old.AsI64() {
		return new, nil
	}
	return old, nil
}

// MergeMaxI64 keeps the larger of two i64 outputs (ascending-lattice
// analyses such as interval upper bounds).
func MergeMaxI64(old, new Value) (Value, error) {
	if new.AsI64() > old.AsI64() {
		return new, nil
	}
	return old, nil
}

// Function declares an egglog function: a name, parameter sorts, an output
// sort, and for constructors an extraction cost.
type Function struct {
	Name   string
	Params []*Sort
	Out    *Sort
	// Cost is the default extraction cost of e-nodes made by this
	// constructor. Ignored for non-constructors.
	Cost int64
	// Merge resolves output conflicts for primitive-output functions.
	Merge MergeFn
	// Unextractable marks helper constructors that extraction must never
	// choose (egglog's :unextractable).
	Unextractable bool
	// MergeName is the symbolic name of Merge ("", "min", "max",
	// "overwrite") recorded in journals so replay can reconstruct the merge
	// function; the egglog front end sets it from the :merge option. Leave
	// "" for the default MergeMustEqual.
	MergeName string

	// id indexes the function's table of rows in the graph that declared
	// it and in that graph's clones; it is assigned by DeclareFunction,
	// after which a Function is never modified.
	id int
}

// IsConstructor reports whether the function builds e-nodes (output is an
// eq-sort).
func (f *Function) IsConstructor() bool { return f.Out.Kind == KindEq }

// Arity returns the number of parameters.
func (f *Function) Arity() int { return len(f.Params) }

func (f *Function) String() string { return f.Name }

// row is one entry of a function table: its output and bookkeeping. Its
// canonical argument tuple lives in the table's flat argument block
// (table.argsOf), and the as-inserted tuple, kept when proof recording is
// on so congruence justifications can explain child equalities, in the
// orig block (table.origOf). A row holds no pointer, so the collector
// scans none of a table's rows. out keeps the identity assigned at
// insertion (callers canonicalize via Find).
//
// stamp is the e-graph epoch at which the row last changed: inserted, had
// an argument re-canonicalized, or had its output move to a different
// canonical class. Semi-naive matching uses it to restrict sub-queries to
// the delta since the previous iteration. outCanon caches Find(out).Bits
// so Rebuild can detect output-side changes without rewriting out (which
// deliberately keeps its original identity for proof anchoring); it also
// keys the out-column match index.
type row struct {
	out      Value
	stamp    uint64
	outCanon uint64
	// cost is the node's unstable-cost override, 0 for none (installs
	// clamp to at least 1). When Rebuild merges two congruent rows, the
	// survivor keeps the cheaper override.
	cost int64
	// provRule and provIter record provenance: the rule (interned in the
	// graph's provRules table; 0 = none) and saturation iteration that
	// created the row. Stamped unconditionally — see EGraph.RowProvenance.
	provRule uint32
	provIter uint32
	dead     bool
}

// keepCheaper installs cost as r's override unless cost is 0 (none) or r
// already has an override at most as cheap; it reports whether it did.
func (r *row) keepCheaper(cost int64) bool {
	if cost == 0 || (r.cost != 0 && r.cost <= cost) {
		return false
	}
	r.cost = cost
	return true
}

// colIndex lists, for one column of a table, the live rows holding each
// canonical value. slots is an open-addressed hash table, probed linearly
// from hashBits of the value, whose entries name each value's run of
// rows: a contiguous ascending stretch of the one flat rows block. An
// entry with n == 0 is empty. Neither part holds a pointer. A change to
// the table's rows marks the index stale, and building the column again
// refills both parts in place, so an index allocates only when its table
// has outgrown it.
type colIndex struct {
	slots []colSlot
	rows  []int32
	stale atomic.Bool
}

// colSlot is one entry of a colIndex: the value's bits and its stretch
// rows[off:off+n].
type colSlot struct {
	bits   uint64
	off, n int32
}

// rowsOf returns the ascending slots of the rows holding bits.
func (c *colIndex) rowsOf(bits uint64) []int32 {
	s := c.slot(bits)
	return c.rows[s.off : s.off+s.n : s.off+s.n]
}

// slot returns the entry of bits, or the empty entry its probe ends at.
func (c *colIndex) slot(bits uint64) *colSlot {
	mask := uint64(len(c.slots) - 1)
	i := hashBits(hashSeed, bits) & mask
	for c.slots[i].n != 0 && c.slots[i].bits != bits {
		i = (i + 1) & mask
	}
	return &c.slots[i]
}

// fill indexes column col of t, reusing c's storage. slots gets at least
// twice as many entries as t has live rows, so it is at most half full.
// Each value's rows are counted, the stretches laid out back to back with
// off at each stretch's end, then every stretch is filled from its end
// walking the rows backwards, which leaves off at its start and its rows
// ascending.
func (c *colIndex) fill(t *table, col int) {
	n := 8
	for n < 2*t.live {
		n *= 2
	}
	if cap(c.slots) >= n {
		c.slots = c.slots[:n]
		clear(c.slots)
	} else {
		c.slots = make([]colSlot, n)
	}
	for r := range t.rows {
		if !t.rows[r].dead {
			b := t.colBits(r, col)
			s := c.slot(b)
			s.bits = b
			s.n++
		}
	}
	var end int32
	for i := range c.slots {
		if c.slots[i].n != 0 {
			end += c.slots[i].n
			c.slots[i].off = end
		}
	}
	c.rows = slices.Grow(c.rows[:0], int(end))[:end]
	for r := len(t.rows) - 1; r >= 0; r-- {
		if !t.rows[r].dead {
			s := c.slot(t.colBits(r, col))
			s.off--
			c.rows[s.off] = int32(r)
		}
	}
}

// column is the match index of one column of a table (nil until its
// first build) and the mutex a build takes.
type column struct {
	index atomic.Pointer[colIndex]
	mu    sync.Mutex
}

// ready returns the column's index when it is built and not stale.
func (c *column) ready() *colIndex {
	if p := c.index.Load(); p != nil && !p.stale.Load() {
		return p
	}
	return nil
}

// table stores the rows of one function with an index from the canonical
// argument tuple to the row slot. Rows are append-mostly; a row whose
// canonical key collides with another during rebuilding is marked dead,
// and Rebuild compacts a table once dead rows dominate (preserving
// relative order, so iteration stays deterministic).
//
// The rows' argument tuples are one flat block, args, with stride arity:
// row r's tuple is args[r*arity:(r+1)*arity]. Under trackOrig the
// as-inserted tuples are a second block, orig, laid out the same way but
// starting at row origFrom, the row count when recording began (rows
// inserted before it have no recorded tuple). Neither block holds a
// pointer, and inserting a row allocates nothing once they have grown.
//
// index is an open-addressed hash table over row slots, probed linearly
// from hashArgs of the argument bits: entry r+1 names row r and 0 is
// empty. Every live row has an entry under its current args. A row that
// Rebuild re-canonicalizes gets a new entry and leaves its old one stale,
// so a probe compares each candidate row's current args and skips dead
// rows. used counts occupied entries, stale ones included, and never
// exceeds half the index; a grow rehashes live rows only. Like the rows,
// the index is written only in serial phases and read by match workers.
//
// cols holds each column's match index (built lazily, marked stale by
// inserts, Set and a Rebuild that changes a row), which lists the rows
// holding a canonical value (colIndex) for index-probe steps. Position
// Arity() is the output column, keyed by outCanon. Each column publishes
// its index through an atomic pointer and builds under its own mutex, so
// concurrent match workers racing on different columns never serialize
// on each other. A stale index keeps its storage for the next build.
// fresh is set by a build and cleared when the indexes are marked stale:
// while it is clear, no index of the table is fresh.
//
// pending accumulates rows touched during the current epoch (deduplicated
// via row.stamp); rotateFrontier moves them into frontier, the sorted
// delta the next match iteration scans.
type table struct {
	arity int
	rows  []row
	args  []Value
	index []int32
	used  int
	live  int
	// trackOrig preserves as-inserted argument tuples (proof recording).
	// It also disables compaction: proof rendering holds row indices.
	trackOrig bool
	orig      []Value
	origFrom  int

	cols  []column
	fresh atomic.Bool

	pending  []int32
	frontier []int32
}

func newTable(arity int) *table {
	return &table{arity: arity, cols: make([]column, arity+1)}
}

// argsOf returns row r's argument tuple: a window into the flat block,
// clipped to its length so an append cannot overrun into the next row.
// Writing through it updates the row; it stays the row's tuple until the
// block next grows (an insert) or moves (compaction).
func (t *table) argsOf(r int) []Value {
	i := r * t.arity
	return t.args[i : i+t.arity : i+t.arity]
}

// origOf returns row r's as-inserted argument tuple, or nil when the row
// predates proof recording (or recording is off).
func (t *table) origOf(r int) []Value {
	if !t.trackOrig || r < t.origFrom {
		return nil
	}
	i := (r - t.origFrom) * t.arity
	return t.orig[i : i+t.arity : i+t.arity]
}

// recordOrig turns on as-inserted tuple recording for rows inserted from
// now on.
func (t *table) recordOrig() {
	if !t.trackOrig {
		t.trackOrig = true
		t.origFrom = len(t.rows)
	}
}

// colBits returns the canonical bits of column col of row r: an argument,
// or the output's class when col == t.arity.
func (t *table) colBits(r, col int) uint64 {
	if col < t.arity {
		return t.args[r*t.arity+col].Bits
	}
	return t.rows[r].outCanon
}

// invalidateArgIndex marks the column indexes stale; they keep their
// storage. Only called from serial phases (insert, Set, apply, Rebuild),
// never concurrently with match-phase builds. Once it has, the table's
// next changes find nothing fresh to mark until a build, so an apply
// phase marks a table's indexes once, not once per row it adds.
func (t *table) invalidateArgIndex() {
	if !t.fresh.Load() {
		return
	}
	t.fresh.Store(false)
	for i := range t.cols {
		if p := t.cols[i].index.Load(); p != nil {
			p.stale.Store(true)
		}
	}
}

// buildArgIndex returns (building on first use) the index for column i —
// an argument position, or the output column when i == t.arity. Rows
// must be canonical (right after Rebuild). Safe for concurrent callers;
// racers on different columns do not contend.
func (t *table) buildArgIndex(i int) *colIndex {
	c := &t.cols[i]
	if p := c.ready(); p != nil {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.ready(); p != nil {
		return p
	}
	p := c.index.Load()
	if p == nil {
		p = new(colIndex)
	}
	p.fill(t, i)
	p.stale.Store(false)
	c.index.Store(p)
	t.fresh.Store(true)
	return p
}

// touch records that row i changed during epoch: semi-naive matching must
// re-examine it next iteration. Idempotent within an epoch.
func (t *table) touch(i int, epoch uint64) {
	r := &t.rows[i]
	if r.stamp == epoch {
		return
	}
	r.stamp = epoch
	t.pending = append(t.pending, int32(i))
}

// rotateFrontier moves the rows touched during the closing epoch into the
// match frontier (sorted ascending, so frontier scans enumerate matches in
// the same relative order a full scan would) and returns the number of
// live delta rows.
func (t *table) rotateFrontier() int {
	t.frontier, t.pending = t.pending, t.frontier[:0]
	slices.Sort(t.frontier)
	n := 0
	for _, ri := range t.frontier {
		if !t.rows[ri].dead {
			n++
		}
	}
	return n
}

// compactMinDead is the smallest tombstone count worth compacting away.
const compactMinDead = 64

// maybeCompact rewrites the table without dead rows once they outnumber
// live ones, moving each kept row's argument tuple along with it, and
// marks the column indexes stale, since they name row slots.
// Relative row order is preserved (scan order, and therefore match order,
// is unchanged); pending is remapped and the frontier is dropped (it is
// rebuilt by the next rotation before any delta match). Disabled under
// proof recording, which anchors explanations at row slots.
func (t *table) maybeCompact() {
	dead := len(t.rows) - t.live
	if t.trackOrig || dead < compactMinDead || dead*2 <= len(t.rows) {
		return
	}
	remap := make([]int32, len(t.rows))
	w := 0
	for r := range t.rows {
		if t.rows[r].dead {
			remap[r] = -1
			continue
		}
		remap[r] = int32(w)
		if w != r {
			t.rows[w] = t.rows[r]
			copy(t.argsOf(w), t.argsOf(r))
		}
		w++
	}
	t.rows = t.rows[:w]
	t.args = t.args[:w*t.arity]
	t.reindex()
	t.invalidateArgIndex()
	pending := t.pending[:0]
	for _, ri := range t.pending {
		if ni := remap[ri]; ni >= 0 {
			pending = append(pending, ni)
		}
	}
	t.pending = pending
	t.frontier = t.frontier[:0]
}

// hashSeed keys hashArgs. It is drawn once per process, so argument
// values a client chooses (i64 literals in a request) cannot be picked to
// build long probe chains. The index is only probed, never iterated, so
// the seed cannot reach any output.
var hashSeed = rand.Uint64()

// hashArgs hashes the bits of an argument tuple, folding in one value at a
// time (hashBits).
func hashArgs(args []Value) uint64 {
	h := hashSeed
	for _, a := range args {
		h = hashBits(h, a.Bits)
	}
	return h
}

// hashBits folds b into the hash h with a 64×64→128-bit multiply (the mix
// wyhash uses).
func hashBits(h, b uint64) uint64 {
	hi, lo := bits.Mul64(h^b, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// sameBits reports whether two tuples of one function's arguments hold
// the same bits (their sorts are the function's parameter sorts).
func sameBits(a, b []Value) bool {
	for i := range a {
		if a[i].Bits != b[i].Bits {
			return false
		}
	}
	return true
}

// lookupRow returns the slot of the live row whose args are args.
func (t *table) lookupRow(args []Value) (int, bool) {
	r, _, ok := t.probe(args, -1)
	return r, ok
}

// probe returns the slot of a live row other than skip whose args are
// args. Stale entries fail the comparison or name a dead row. When there
// is no such row it returns the index entry its probe stopped at, the
// empty one place would fill for a row with these args (-1 while the
// index is empty), so a miss can insert without probing again.
func (t *table) probe(args []Value, skip int) (r, entry int, ok bool) {
	if len(t.index) == 0 {
		return 0, -1, false
	}
	mask := uint64(len(t.index) - 1)
	for i := hashArgs(args) & mask; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return 0, int(i), false
		}
		r := int(e - 1)
		if r != skip && !t.rows[r].dead && sameBits(t.argsOf(r), args) {
			return r, 0, true
		}
	}
}

// addEntry indexes live row r under its current args. An entry that
// would fill more than half the index rehashes it instead, which indexes
// every live row, r included.
func (t *table) addEntry(r int) {
	if 2*(t.used+1) > len(t.index) {
		t.reindex()
		return
	}
	t.place(r)
}

// place writes an entry for row r into the first empty slot of its probe
// sequence.
func (t *table) place(r int) {
	mask := uint64(len(t.index) - 1)
	i := hashArgs(t.argsOf(r)) & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = int32(r + 1)
	t.used++
}

// reindex rebuilds the index from the live rows alone, dropping stale
// entries, sized so that it is at most a quarter full.
func (t *table) reindex() {
	n := 8
	for n < 4*(t.live+1) {
		n *= 2
	}
	if len(t.index) == n {
		clear(t.index)
	} else {
		t.index = make([]int32, n)
	}
	t.used = 0
	for r := range t.rows {
		if !t.rows[r].dead {
			t.place(r)
		}
	}
}

// insert adds a row assuming args are canonical and no row with the same
// key exists, stamping it with the current epoch, and marks the column
// indexes stale. entry is the empty index entry where a probe for args
// stopped (probe), which the row's entry takes unless the index must
// grow; -1 places it by probing.
func (t *table) insert(args []Value, out Value, epoch uint64, entry int) {
	t.args = append(t.args, args...)
	if t.trackOrig {
		t.orig = append(t.orig, args...)
	}
	r := len(t.rows)
	t.pending = append(t.pending, int32(r))
	t.rows = append(t.rows, row{out: out, stamp: epoch, outCanon: out.Bits})
	t.live++
	switch {
	case 2*(t.used+1) > len(t.index):
		t.reindex()
	case entry >= 0:
		t.index[entry] = int32(r + 1)
		t.used++
	default:
		t.place(r)
	}
	t.invalidateArgIndex()
}
