package egraph

import (
	"bytes"
	"maps"
	"slices"

	"dialegg/internal/obs/journal"
)

// RecordHistory makes g keep its own journal in memory from now on, so
// that SetJournal on a later Clone back-fills everything g did before it
// was cloned: declarations, rows, unions, runs. A graph built once and
// cloned many times (a rule-set template) records its build this way, and
// a journal attached to any clone replays from scratch exactly as if the
// clone had been built with the journal attached. Call it right after New.
func (g *EGraph) RecordHistory() {
	g.histBuf = new(bytes.Buffer)
	g.journal = journal.NewWriter(g.histBuf)
}

// Clone returns an independent copy of g: declarations, rows, classes,
// interned strings and vectors, cost overrides, proofs, provenance and
// counters, so whatever runs on the copy behaves exactly as it would on g.
// Sorts, functions and the rules compiled against them are shared: they
// are immutable once declared, and their storage lives in the graph; the
// maps naming them are copied on the copy's first declaration. Lazily
// built match indexes are not copied. The copy has no journal
// attached; SetJournal on it back-fills g's recorded history.
//
// Clone only reads g, so any number of goroutines may clone one graph as
// long as nothing mutates it. A recording graph (RecordHistory) flushes
// its history, so only its owner may clone it.
func (g *EGraph) Clone() *EGraph {
	c := *g
	c.funcs = slices.Clip(g.funcs)
	c.sortTab = slices.Clip(g.sortTab)
	c.declsShared = true
	c.uf = g.uf.Clone()
	c.strings = g.strings.clone()
	c.vecs = g.vecs.clone()
	c.tables = cloneTables(g.tables)
	if g.proofs != nil {
		c.proofs = &proofForest{parent: slices.Clone(g.proofs.parent), edge: slices.Clone(g.proofs.edge)}
	}
	c.createdBy = maps.Clone(g.createdBy)
	c.provRules = slices.Clip(g.provRules)
	c.ruleIDs = maps.Clone(g.ruleIDs)
	if g.histBuf != nil {
		_ = g.journal.Flush() // writes to a bytes.Buffer cannot fail
		c.history = append(slices.Clip(g.history), g.histBuf.Bytes()...)
	}
	c.journal, c.histBuf = nil, nil
	c.inRebuild, c.snapRoots, c.stack = false, nil, nil
	return &c
}

// cloneTables copies a graph's tables for its clone. Rows get their own
// argument blocks (Rebuild re-canonicalizes them in place); the
// as-inserted blocks are never written after insert and stay shared,
// clipped so that the clone's inserts copy them. Column indexes start
// empty, with no storage: clones of one graph run concurrently, so each
// builds its indexes into storage of its own. The tables, their columns,
// their row indexes and the argument blocks are each carved from one
// allocation.
func cloneTables(src []*table) []*table {
	ncols, slots, nargs := 0, 0, 0
	for _, t := range src {
		ncols += len(t.cols)
		slots += len(t.index)
		nargs += len(t.args)
	}
	tabs := make([]table, len(src))
	cols := make([]column, ncols)
	index := make([]int32, 0, slots)
	args := make([]Value, 0, nargs)
	out := make([]*table, len(src))
	for i, t := range src {
		c := &tabs[i]
		n := len(t.cols)
		*c = table{
			arity:     t.arity,
			rows:      slices.Clone(t.rows),
			used:      t.used,
			live:      t.live,
			trackOrig: t.trackOrig,
			orig:      slices.Clip(t.orig),
			origFrom:  t.origFrom,
			cols:      cols[:n:n],
			pending:   slices.Clone(t.pending),
			frontier:  slices.Clone(t.frontier),
		}
		cols = cols[n:]
		at := len(index)
		index = append(index, t.index...)
		c.index = index[at:len(index):len(index)]
		at = len(args)
		args = append(args, t.args...)
		c.args = args[at:len(args):len(args)]
		out[i] = c
	}
	return out
}

func (p *stringPool) clone() *stringPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &stringPool{byText: maps.Clone(p.byText), texts: slices.Clip(p.texts)}
}

// clone shares the stored vectors, which are never written after
// interning.
func (p *vecPool) clone() *vecPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &vecPool{index: slices.Clone(p.index), vecs: slices.Clip(p.vecs)}
}
