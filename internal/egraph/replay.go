package egraph

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dialegg/internal/obs/journal"
)

// ReplayOptions selects which part of a journal to reconstruct.
type ReplayOptions struct {
	// ToIter stops replay once saturation iteration ToIter has completed:
	// at the next iteration boundary, or at the run's end if it stopped
	// earlier. Negative replays the whole graph segment (including
	// post-run mutations such as extraction-time rebuilds).
	ToIter int
	// Graph selects the 0-based graph segment of a multi-graph journal
	// (one segment per optimized function in egg-opt module journals).
	Graph int
	// Verify byte-compares every snapshot embedded in the journal against
	// a snapshot of the replayed graph at the same point; a mismatch is an
	// error (the journal and engine disagree — a bug in one of them).
	Verify bool
}

// ReplayResult summarizes a replay.
type ReplayResult struct {
	// GraphName is the replayed segment's label.
	GraphName string
	// Events is the number of journal events consumed (rebuild-internal
	// events, which replay regenerates, count as consumed).
	Events int
	// Iterations is the last saturation iteration replayed.
	Iterations int
	// SnapshotsVerified counts the embedded snapshots checked (Verify).
	SnapshotsVerified int
	// LastSnapshot holds the raw bytes of the last embedded snapshot seen
	// before the stop point, and SnapshotIter its iteration; nil when the
	// journal carried none (run without -snapshot-every).
	LastSnapshot json.RawMessage
	SnapshotIter int
}

// Replay reconstructs an e-graph from a journal, bit-identically to the
// graph the journal was recorded from at the chosen stop point.
//
// The journal records every serial-section mutation with its emit-time
// canonical operands — exactly the bits the original run stored — so
// replay re-executes insertions, unions, merges, and cost installs
// verbatim, never re-canonicalizing. Events flagged as rebuild-internal
// are skipped: replay invokes Rebuild itself at each recorded
// rebuild-end, and Rebuild is deterministic given identical table state,
// so it regenerates precisely the congruence repairs the original
// performed. E-class IDs match because they are allocated densely in
// insertion order and every allocation is journaled; string and vector
// values are re-interned by content (their pool numbering is
// process-local, which is why snapshots render values, not pool indexes).
func Replay(events []journal.Event, opt ReplayOptions) (*EGraph, *ReplayResult, error) {
	// Locate the requested graph segment.
	begin := -1
	seen := 0
	for i, e := range events {
		if e.Kind == journal.KGraph {
			if seen == opt.Graph {
				begin = i
				break
			}
			seen++
		}
	}
	if begin < 0 {
		return nil, nil, fmt.Errorf("egraph: journal has %d graph segment(s), no segment %d", seen, opt.Graph)
	}

	g := New()
	res := &ReplayResult{GraphName: events[begin].Name}
	if events[begin].Explanations {
		// Mirror the original's proof recording: trackOrig changes table
		// bookkeeping (orig tuples, compaction disabled), so replay must
		// run with the same setting to evolve identically.
		g.EnableExplanations()
	}

	for i := begin + 1; i < len(events); i++ {
		e := &events[i]
		if e.Kind == journal.KGraph {
			break // next segment
		}
		res.Events++
		if e.Rebuild {
			continue // regenerated by our own Rebuild call at rebuild-end
		}
		if err := replayEvent(g, res, e, opt); err != nil {
			if err == errReplayStop {
				break
			}
			return nil, nil, fmt.Errorf("egraph: replay event %d (%s): %w", i+1, e.Kind, err)
		}
	}
	return g, res, nil
}

// errReplayStop is the internal stop sentinel for the --to-iter boundary.
var errReplayStop = fmt.Errorf("replay stop")

func replayEvent(g *EGraph, res *ReplayResult, e *journal.Event, opt ReplayOptions) error {
	switch e.Kind {
	case journal.KSort:
		_, err := g.AddEqSort(e.Name)
		return err

	case journal.KFn:
		merge, err := mergeFnByName(e.Merge)
		if err != nil {
			return err
		}
		f := &Function{
			Name:          e.Fn,
			Params:        make([]*Sort, len(e.Params)),
			Cost:          e.FnCost,
			Merge:         merge,
			MergeName:     e.Merge,
			Unextractable: e.Unextractable,
		}
		for i, p := range e.Params {
			if f.Params[i], err = g.sortForName(p); err != nil {
				return err
			}
		}
		if f.Out, err = g.sortForName(e.OutSort); err != nil {
			return err
		}
		_, err = g.DeclareFunction(f)
		return err

	case journal.KInsert:
		f, args, err := replayRow(g, e)
		if err != nil {
			return err
		}
		var out Value
		if f.IsConstructor() {
			want, err := g.decodeVal(*e.Out)
			if err != nil {
				return err
			}
			out = g.newClass(f.Out)
			if out.Bits != want.Bits {
				return fmt.Errorf("diverged: allocated class #%d, journal recorded #%d", out.Bits, want.Bits)
			}
		} else {
			out = Value{Sort: g.Unit}
		}
		t := g.tab(f)
		t.insert(args, out, g.epoch)
		t.invalidateArgIndex()
		g.effects++
		stampReplayProvenance(g, f, e)
		if g.trackOrig && f.IsConstructor() {
			if g.createdBy == nil {
				g.createdBy = make(map[uint32]createdRef)
			}
			g.createdBy[uint32(out.Bits)] = createdRef{fn: f, row: len(t.rows) - 1}
		}
		return nil

	case journal.KSet:
		f, args, err := replayRow(g, e)
		if err != nil {
			return err
		}
		out, err := g.decodeVal(*e.Out)
		if err != nil {
			return err
		}
		t := g.tab(f)
		t.insert(args, out, g.epoch)
		t.invalidateArgIndex()
		g.effects++
		stampReplayProvenance(g, f, e)
		return nil

	case journal.KRowOut:
		f, args, i, out, err := replayRowUpdate(g, e)
		if err != nil {
			return err
		}
		_ = args
		// Mirrors Set's constructor-merge path: only the row's output
		// identity moves; outCanon stays stale until the next Rebuild.
		g.tab(f).rows[i].out = out
		return nil

	case journal.KMerge:
		f, _, i, out, err := replayRowUpdate(g, e)
		if err != nil {
			return err
		}
		t := g.tab(f)
		t.rows[i].out = out
		t.rows[i].outCanon = out.Bits
		t.touch(i, g.epoch)
		t.invalidateArgIndex()
		g.effects++
		return nil

	case journal.KUnion:
		a, err := g.decodeVal(*e.A)
		if err != nil {
			return err
		}
		b, err := g.decodeVal(*e.B)
		if err != nil {
			return err
		}
		if ra := g.uf.Find(uint32(a.Bits)); ra != e.CanonA {
			return fmt.Errorf("diverged: union lhs canonical #%d, journal recorded #%d", ra, e.CanonA)
		}
		if rb := g.uf.Find(uint32(b.Bits)); rb != e.CanonB {
			return fmt.Errorf("diverged: union rhs canonical #%d, journal recorded #%d", rb, e.CanonB)
		}
		j, err := g.decodeJust(e.Just, e.Iter)
		if err != nil {
			return err
		}
		_, err = g.UnionWithReason(a, b, j)
		return err

	case journal.KCost:
		f, args, err := replayRow(g, e)
		if err != nil {
			return err
		}
		if g.costs[f.id] == nil {
			g.costs[f.id] = make(map[string]int64)
		}
		// The original emitted only installs that won the keep-cheaper
		// check, so the recorded cost overwrites unconditionally.
		g.costs[f.id][argsKey(args)] = e.Cost
		g.effects++
		return nil

	case journal.KIter:
		if opt.ToIter >= 0 && e.Iter > opt.ToIter {
			return errReplayStop
		}
		g.iterCur = uint32(e.Iter)
		res.Iterations = e.Iter
		return nil

	case journal.KRebuildEnd:
		g.Rebuild()
		return nil

	case journal.KSnapshot:
		res.LastSnapshot = e.Snapshot
		res.SnapshotIter = e.Iter
		if opt.Verify {
			got, err := json.Marshal(g.Snapshot(e.Iter))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, []byte(e.Snapshot)) {
				return fmt.Errorf("snapshot mismatch at iteration %d:\n journal: %s\n replay:  %s", e.Iter, e.Snapshot, got)
			}
			res.SnapshotsVerified++
		}
		return nil

	case journal.KRunEnd:
		// The run ended before reaching ToIter (saturation, limits):
		// there is nothing later in this run, so the target boundary is
		// this state. Stop only when the target was reachable at all, so
		// multi-run segments keep replaying into the next run otherwise.
		if opt.ToIter >= 0 && res.Iterations >= opt.ToIter {
			return errReplayStop
		}
		return nil

	case journal.KRun, journal.KFire, journal.KRebuildBegin:
		return nil

	default:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	}
}

// replayRow resolves a row event's function and decodes its argument tuple
// verbatim (the recorded emit-time canonical bits).
func replayRow(g *EGraph, e *journal.Event) (*Function, []Value, error) {
	f, ok := g.funcsBy[e.Fn]
	if !ok {
		return nil, nil, fmt.Errorf("undeclared function %q", e.Fn)
	}
	args, err := g.decodeVals(e.Args)
	if err != nil {
		return nil, nil, err
	}
	return f, args, nil
}

// replayRowUpdate resolves a row-update event down to the row slot it
// targets plus its decoded new output.
func replayRowUpdate(g *EGraph, e *journal.Event) (*Function, []Value, int, Value, error) {
	f, args, err := replayRow(g, e)
	if err != nil {
		return nil, nil, 0, Value{}, err
	}
	i, ok := g.tab(f).lookupRow(args)
	if !ok {
		return nil, nil, 0, Value{}, fmt.Errorf("diverged: %s row not found for recorded args", f.Name)
	}
	out, err := g.decodeVal(*e.Out)
	if err != nil {
		return nil, nil, 0, Value{}, err
	}
	return f, args, i, out, nil
}

// stampReplayProvenance applies the recorded provenance (rule name,
// iteration) to the row just inserted. Rule IDs are re-interned locally;
// names, which is what every consumer renders, match the original.
func stampReplayProvenance(g *EGraph, f *Function, e *journal.Event) {
	rows := g.tab(f).rows
	r := &rows[len(rows)-1]
	r.provRule = g.ruleID(e.Rule)
	r.provIter = uint32(e.Iter)
}
