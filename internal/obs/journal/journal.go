// Package journal is the semantic observability layer of the saturation
// engine: an append-only event log of everything that mutates an e-graph —
// sort and function declarations, e-node insertions, unions with their
// justification, rebuild congruence repairs, iteration boundaries, and
// periodic state snapshots.
//
// Where package obs answers "where did the time go", a journal answers
// "which rule created which e-node, when, and why" — and because every
// mutation is recorded with its emit-time canonical operands, a journal is
// also a deterministic replay script: internal/egraph.Replay reconstructs
// the e-graph at any recorded iteration, bit-identically, from the journal
// alone (cmd/egg-debug drives this).
//
// The design mirrors obs.Recorder:
//
//   - Zero cost when disabled. Every Writer method is safe on a nil
//     *Writer; instrumented code guards with one pointer check and builds
//     no event values unless a journal was requested.
//   - Race-free under the match worker pool. Events are emitted only from
//     the engine's serial sections (insert, apply, rebuild, iteration
//     bookkeeping); the match phase only reads the graph and never emits.
//
// The on-disk format is JSON Lines: one Event object per line, in emission
// order. Snapshots are embedded as raw single-line JSON payloads so one
// file carries the full time-travel record.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Event kinds. KRebuildBegin/KRebuildEnd bracket congruence restoration;
// events emitted inside carry Rebuild=true and are skipped by replay
// (replay re-runs Rebuild itself, which regenerates them deterministically).
const (
	// KGraph begins a graph segment: one e-graph's lifetime within the
	// journal (a module with several functions journals several segments).
	KGraph = "graph"
	// KSort records an equivalence-sort declaration.
	KSort = "sort"
	// KFn records a function declaration (params, output, cost, merge).
	KFn = "fn"
	// KInsert records e-node creation: a new table row, with a fresh
	// e-class when the function is a constructor.
	KInsert = "insert"
	// KSet records row creation through Set (output supplied by the
	// caller; no fresh class).
	KSet = "set"
	// KRowOut records a constructor row's output being re-pointed at the
	// merged class (Set on an existing constructor row).
	KRowOut = "rowout"
	// KMerge records a primitive-output row's value changing under the
	// function's merge.
	KMerge = "merge"
	// KUnion records an effective union with its justification and the
	// emit-time canonical roots of both operands.
	KUnion = "union"
	// KCost records an unstable-cost override install.
	KCost = "cost"
	// KRun / KRunEnd bracket one saturation run.
	KRun    = "run-begin"
	KRunEnd = "run-end"
	// KIter marks the start of a saturation iteration (graph-lifetime
	// iteration counter, monotonically increasing across runs).
	KIter = "iter"
	// KRebuildBegin / KRebuildEnd bracket a Rebuild call.
	KRebuildBegin = "rebuild-begin"
	KRebuildEnd   = "rebuild-end"
	// KSnapshot embeds a full e-graph snapshot (egraph.Snapshot JSON)
	// taken at the end of the iteration named by Iter.
	KSnapshot = "snapshot"
)

// knownKinds is the lint whitelist.
var knownKinds = map[string]bool{
	KGraph: true, KSort: true, KFn: true, KInsert: true, KSet: true,
	KRowOut: true, KMerge: true, KUnion: true, KCost: true, KRun: true,
	KRunEnd: true, KIter: true, KRebuildBegin: true, KRebuildEnd: true,
	KSnapshot: true,
}

// Val is a journal-encoded engine value: self-describing (sort name plus
// payload) so replay does not depend on the emitting process's intern-pool
// numbering. Eq-sort class IDs are stable across replay (they are allocated
// densely in insertion order, and every insertion is journaled); string and
// vector payloads are carried by content and re-interned on replay.
type Val struct {
	// Sort is the declared sort name ("i64", "Expr", "Vec<Expr>", ...).
	Sort string `json:"s"`
	// Bits carries the raw 64-bit payload for i64/f64/bool values and the
	// class ID for eq-sort values, as a decimal string (JSON numbers lose
	// precision past 2^53).
	Bits string `json:"b,omitempty"`
	// Str carries a KindString payload.
	Str *string `json:"str,omitempty"`
	// Elems carries KindVec elements.
	Elems []Val `json:"v,omitempty"`
}

// Just is a journal-encoded union justification (see egraph.Justification).
type Just struct {
	Kind  string `json:"kind"`
	Rule  string `json:"rule,omitempty"`
	Fn    string `json:"fn,omitempty"`
	ArgsA []Val  `json:"a,omitempty"`
	ArgsB []Val  `json:"b,omitempty"`
}

// Event is one journal record. Which fields are set depends on Kind; Iter,
// Rule, and Rebuild are ambient context stamped on every event (the
// iteration counter, the rule whose actions are being applied, and whether
// a Rebuild is in progress).
type Event struct {
	Kind string `json:"k"`
	// Iter is the graph-lifetime iteration counter at emission (0 before
	// the first run iteration).
	Iter int `json:"it,omitempty"`
	// Rule is the rule whose apply phase emitted this event ("" outside
	// rule application). Inserts and unions carry it as provenance.
	Rule string `json:"r,omitempty"`
	// Rebuild marks events emitted while Rebuild was restoring congruence;
	// replay skips them (its own Rebuild call regenerates them).
	Rebuild bool `json:"rb,omitempty"`
	// Name is the sort or graph-segment name (KSort, KGraph), or the stop
	// reason (KRunEnd).
	Name string `json:"n,omitempty"`
	// Explanations (KGraph) records whether proof recording was on, so
	// replay mirrors the original's table bookkeeping.
	Explanations bool `json:"expl,omitempty"`

	// Fn names the function for row and declaration events.
	Fn string `json:"fn,omitempty"`
	// Params, OutSort, FnCost, Merge, Unextractable describe a KFn event.
	Params        []string `json:"params,omitempty"`
	OutSort       string   `json:"outsort,omitempty"`
	FnCost        int64    `json:"fncost,omitempty"`
	Merge         string   `json:"merge,omitempty"`
	Unextractable bool     `json:"unex,omitempty"`

	// Args/Out carry a row's canonical-at-emit argument tuple and output.
	Args []Val `json:"args,omitempty"`
	Out  *Val  `json:"out,omitempty"`

	// A/B are union operands (original e-node identities); CanonA/CanonB
	// their canonical roots at emit time (necessarily distinct — only
	// effective unions are journaled).
	A      *Val   `json:"ua,omitempty"`
	B      *Val   `json:"ub,omitempty"`
	CanonA uint32 `json:"ca,omitempty"`
	CanonB uint32 `json:"cb,omitempty"`
	Just   *Just  `json:"just,omitempty"`

	// Cost is an unstable-cost override (KCost).
	Cost int64 `json:"cost,omitempty"`
	// Workers is the run's match-phase pool size (KRun).
	Workers int `json:"workers,omitempty"`
	// Passes is how many passes Rebuild needed (KRebuildEnd).
	Passes int `json:"passes,omitempty"`
	// Snapshot embeds an egraph.Snapshot as compact JSON (KSnapshot).
	Snapshot json.RawMessage `json:"snap,omitempty"`
}

// Writer appends events to an underlying stream as JSON Lines. A nil
// *Writer is the disabled journal: every method is a cheap no-op. Methods
// are mutex-guarded for safety, but the engine only emits from serial
// sections, so the lock is uncontended by construction.
type Writer struct {
	// SnapshotEvery, when > 0, makes every saturation run on a graph this
	// journal is attached to embed a full state snapshot (KSnapshot) after
	// each N-th iteration of the run. Snapshots are what `egg-debug replay
	// -verify` byte-compares against and what the snapshot differ
	// consumes. Set it before the first run.
	SnapshotEvery int

	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	n   int
	err error
}

// NewWriter returns a journal writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Create opens (truncating) a journal file at path.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := NewWriter(f)
	w.c = f
	return w, nil
}

// Enabled reports whether events are being journaled; it is the guard
// instrumented code uses before building event values.
func (w *Writer) Enabled() bool { return w != nil }

// SnapshotDue reports whether a run should embed a snapshot after its
// iter-th (1-based) iteration.
func (w *Writer) SnapshotDue(iter int) bool {
	return w != nil && w.SnapshotEvery > 0 && iter%w.SnapshotEvery == 0
}

// Emit appends one event. Errors are sticky and surfaced by Close.
func (w *Writer) Emit(e Event) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(append(b, '\n')); err != nil {
		w.err = err
		return
	}
	w.n++
}

// EmitLines appends events another Writer already encoded (its JSON
// Lines output) verbatim.
func (w *Writer) EmitLines(lines []byte) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(lines); err != nil {
		w.err = err
		return
	}
	w.n += bytes.Count(lines, []byte{'\n'})
}

// Count returns the number of events emitted so far.
func (w *Writer) Count() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Flush forces buffered events to the underlying stream.
func (w *Writer) Flush() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Close flushes and closes the underlying file (when Create opened one),
// returning the first emission error if any occurred.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ferr := w.bw.Flush()
	if w.c != nil {
		if cerr := w.c.Close(); ferr == nil {
			ferr = cerr
		}
	}
	if w.err != nil {
		return w.err
	}
	return ferr
}

// Read decodes a JSON Lines journal stream.
func Read(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<28) // snapshot lines can be large
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return events, fmt.Errorf("journal: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("journal: %w", err)
	}
	return events, nil
}

// ReadFile decodes the journal at path.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
