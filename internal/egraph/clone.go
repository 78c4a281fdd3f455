package egraph

import (
	"bytes"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

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
	c.declsShared = true
	c.uf = g.uf.Clone()
	c.strings = g.strings.clone()
	c.vecs = g.vecs.clone()
	c.tables = cloneTables(g.tables)
	c.costs = make([]map[string]int64, len(g.costs))
	for i, m := range g.costs {
		c.costs[i] = maps.Clone(m)
	}
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
	c.inRebuild, c.snapRoots = false, nil
	return &c
}

// cloneTables copies a graph's tables for its clone. Rows get their own
// argument tuples (Rebuild re-canonicalizes them in place); the
// as-inserted tuples are never written and stay shared. Column indexes
// start empty and are rebuilt on demand. The tables, their column slots
// and the argument tuples are each allocated as one block.
func cloneTables(src []*table) []*table {
	cols, nargs := 0, 0
	for _, t := range src {
		cols += len(t.argIndex)
		for i := range t.rows {
			nargs += len(t.rows[i].args)
		}
	}
	tabs := make([]table, len(src))
	idx := make([]atomic.Pointer[argIdx], cols)
	mus := make([]sync.Mutex, cols)
	args := make([]Value, 0, nargs)
	out := make([]*table, len(src))
	for i, t := range src {
		c := &tabs[i]
		n := len(t.argIndex)
		*c = table{
			rows:       slices.Clone(t.rows),
			index:      maps.Clone(t.index),
			live:       t.live,
			trackOrig:  t.trackOrig,
			argIndex:   idx[:n:n],
			argIndexMu: mus[:n:n],
			pending:    slices.Clone(t.pending),
			frontier:   slices.Clone(t.frontier),
		}
		idx, mus = idx[n:], mus[n:]
		for j := range c.rows {
			r := &c.rows[j]
			start := len(args)
			args = append(args, r.args...)
			r.args = args[start:len(args):len(args)]
		}
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
	return &vecPool{byKey: maps.Clone(p.byKey), vecs: slices.Clip(p.vecs)}
}
