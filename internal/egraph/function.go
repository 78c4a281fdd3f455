package egraph

import (
	"fmt"
	"sort"
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

	// id indexes the function's storage (rows, cost overrides) in the
	// graph that declared it and in that graph's clones; it is assigned by
	// DeclareFunction, after which a Function is never modified.
	id int
}

// IsConstructor reports whether the function builds e-nodes (output is an
// eq-sort).
func (f *Function) IsConstructor() bool { return f.Out.Kind == KindEq }

// Arity returns the number of parameters.
func (f *Function) Arity() int { return len(f.Params) }

func (f *Function) String() string { return f.Name }

// row is one entry of a function table: canonical argument tuple and output.
// out keeps the identity assigned at insertion (callers canonicalize via
// Find); orig preserves the as-inserted argument tuple when proof
// recording is on, so congruence justifications can explain child
// equalities.
//
// stamp is the e-graph epoch at which the row last changed: inserted, had
// an argument re-canonicalized, or had its output move to a different
// canonical class. Semi-naive matching uses it to restrict sub-queries to
// the delta since the previous iteration. outCanon caches Find(out).Bits
// so Rebuild can detect output-side changes without rewriting out (which
// deliberately keeps its original identity for proof anchoring); it also
// keys the out-column match index.
type row struct {
	args     []Value
	out      Value
	dead     bool
	orig     []Value
	stamp    uint64
	outCanon uint64
	// provRule and provIter record provenance: the rule (interned in the
	// graph's provRules table; 0 = none) and saturation iteration that
	// created the row. Stamped unconditionally — see EGraph.RowProvenance.
	provRule uint32
	provIter uint32
}

// argIdx maps a canonical value's bits to the (ascending) row slots
// holding it at one column.
type argIdx = map[uint64][]int32

// table stores the rows of one function with an index from the encoded
// canonical argument tuple to the row slot. Rows are append-mostly; a row
// whose canonical key collides with another during rebuilding is marked
// dead, and Rebuild compacts a table once dead rows dominate (preserving
// relative order, so iteration stays deterministic).
//
// argIndex (built lazily per column, invalidated by unions and refreshed
// after Rebuild) maps a canonical value to the rows holding it,
// accelerating partially-bound e-matching joins. Position Arity() is the
// output column, keyed by outCanon. Each slot is an atomic pointer with a
// per-position build mutex, so concurrent match workers racing on
// different columns never serialize on each other.
//
// pending accumulates rows touched during the current epoch (deduplicated
// via row.stamp); rotateFrontier moves them into frontier, the sorted
// delta the next match iteration scans.
type table struct {
	rows  []row
	index map[string]int
	live  int
	// trackOrig preserves as-inserted argument tuples (proof recording).
	// It also disables compaction: proof rendering holds row indices.
	trackOrig bool

	argIndex   []atomic.Pointer[argIdx]
	argIndexMu []sync.Mutex

	pending  []int32
	frontier []int32
}

func newTable(arity int) *table {
	return &table{
		index:      make(map[string]int),
		argIndex:   make([]atomic.Pointer[argIdx], arity+1),
		argIndexMu: make([]sync.Mutex, arity+1),
	}
}

// invalidateArgIndex drops the per-column indexes (after unions/inserts).
// Only called from serial phases (insert, apply, Rebuild), never
// concurrently with match-phase builds.
func (t *table) invalidateArgIndex() {
	for i := range t.argIndex {
		t.argIndex[i].Store(nil)
	}
}

// buildArgIndex returns (building on first use) the index for column i —
// an argument position, or the output column when i == arity. Rows must
// be canonical (right after Rebuild). Safe for concurrent callers; racers
// on different columns do not contend.
func (t *table) buildArgIndex(i, arity int) argIdx {
	if p := t.argIndex[i].Load(); p != nil {
		return *p
	}
	t.argIndexMu[i].Lock()
	defer t.argIndexMu[i].Unlock()
	if p := t.argIndex[i].Load(); p != nil {
		return *p
	}
	idx := make(argIdx, t.live)
	for r := range t.rows {
		row := &t.rows[r]
		if row.dead {
			continue
		}
		bits := row.outCanon
		if i < arity {
			bits = row.args[i].Bits
		}
		idx[bits] = append(idx[bits], int32(r))
	}
	t.argIndex[i].Store(&idx)
	return idx
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
	sort.Slice(t.frontier, func(a, b int) bool { return t.frontier[a] < t.frontier[b] })
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
// live ones. Relative row order is preserved (scan order, and therefore
// match order, is unchanged); pending is remapped and the frontier is
// dropped (it is rebuilt by the next rotation before any delta match).
// Disabled under proof recording, which anchors explanations at row slots.
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
		}
		w++
	}
	t.rows = t.rows[:w]
	t.index = make(map[string]int, w)
	for r := range t.rows {
		t.index[argsKey(t.rows[r].args)] = r
	}
	pending := t.pending[:0]
	for _, ri := range t.pending {
		if ni := remap[ri]; ni >= 0 {
			pending = append(pending, ni)
		}
	}
	t.pending = pending
	t.frontier = t.frontier[:0]
}

func argsKey(args []Value) string {
	buf := make([]byte, 0, len(args)*8)
	for _, a := range args {
		buf = appendValueBits(buf, a)
	}
	return string(buf)
}

func (t *table) lookup(args []Value) (Value, bool) {
	i, ok := t.index[argsKey(args)]
	if !ok {
		return Value{}, false
	}
	return t.rows[i].out, true
}

// lookupRow returns the slot of the row keyed by args.
func (t *table) lookupRow(args []Value) (int, bool) {
	i, ok := t.index[argsKey(args)]
	return i, ok
}

// insert adds a row assuming args are canonical and no row with the same
// key exists, stamping it with the current epoch.
func (t *table) insert(args []Value, out Value, epoch uint64) {
	key := argsKey(args)
	stored := make([]Value, len(args))
	copy(stored, args)
	r := row{args: stored, out: out, stamp: epoch, outCanon: out.Bits}
	if t.trackOrig {
		r.orig = append([]Value(nil), args...)
	}
	t.index[key] = len(t.rows)
	t.pending = append(t.pending, int32(len(t.rows)))
	t.rows = append(t.rows, r)
	t.live++
}
