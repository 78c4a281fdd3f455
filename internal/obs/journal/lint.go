package journal

import (
	"encoding/json"
	"fmt"
)

// Lint checks the structural invariants a well-formed journal satisfies:
//
//   - every event kind is known;
//   - the iteration counter is monotonically non-decreasing within a graph
//     segment (and resets with each new KGraph event);
//   - rebuild begin/end markers balance, and Rebuild-flagged events appear
//     only between them;
//   - union operands were canonical-and-distinct at emit time (the engine
//     journals only effective unions, after Find);
//   - row events name a previously declared function, and insert, set,
//     rowout and merge events carry the row's output;
//   - cost events carry a cost of at least 1 (installs clamp to 1, and
//     the engine stores 0 as "no override");
//   - embedded snapshots are valid JSON.
//
// It returns the first violation found, or nil. cmd/egg-lint exposes it,
// and `make debug-smoke` runs it in CI.
func Lint(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("journal is empty")
	}
	var (
		sawGraph     bool
		lastIter     int
		rebuildDepth int
		fns          map[string]bool
	)
	for i, e := range events {
		where := func() string { return fmt.Sprintf("event %d (%s)", i+1, e.Kind) }
		if !knownKinds[e.Kind] {
			return fmt.Errorf("event %d: unknown kind %q", i+1, e.Kind)
		}
		if e.Kind == KGraph {
			if rebuildDepth != 0 {
				return fmt.Errorf("%s: graph segment begins inside a rebuild", where())
			}
			sawGraph = true
			lastIter = 0
			fns = map[string]bool{}
			continue
		}
		if !sawGraph {
			return fmt.Errorf("%s: precedes the first graph event", where())
		}
		if e.Iter < lastIter {
			return fmt.Errorf("%s: iteration %d < previous %d", where(), e.Iter, lastIter)
		}
		lastIter = e.Iter
		switch e.Kind {
		case KRebuildBegin:
			rebuildDepth++
		case KRebuildEnd:
			rebuildDepth--
			if rebuildDepth < 0 {
				return fmt.Errorf("%s: rebuild-end without rebuild-begin", where())
			}
		}
		if e.Rebuild && rebuildDepth == 0 {
			return fmt.Errorf("%s: rebuild-flagged event outside rebuild markers", where())
		}
		if !e.Rebuild && rebuildDepth > 0 {
			switch e.Kind {
			case KRebuildBegin, KRebuildEnd:
			default:
				return fmt.Errorf("%s: unflagged event inside rebuild markers", where())
			}
		}
		switch e.Kind {
		case KFn:
			if e.Fn == "" {
				return fmt.Errorf("%s: function declaration without a name", where())
			}
			fns[e.Fn] = true
		case KInsert, KSet, KRowOut, KMerge, KCost:
			if !fns[e.Fn] {
				return fmt.Errorf("%s: row event for undeclared function %q", where(), e.Fn)
			}
			if e.Kind == KCost && e.Cost < 1 {
				return fmt.Errorf("%s: cost %d below 1", where(), e.Cost)
			}
			if e.Kind != KCost && e.Out == nil {
				return fmt.Errorf("%s: row event without out", where())
			}
		case KUnion:
			if e.CanonA == e.CanonB {
				return fmt.Errorf("%s: union operands share canonical root %d (not an effective union)", where(), e.CanonA)
			}
			if e.A == nil || e.B == nil {
				return fmt.Errorf("%s: union missing operand values", where())
			}
		case KSnapshot:
			if !json.Valid(e.Snapshot) {
				return fmt.Errorf("%s: embedded snapshot is not valid JSON", where())
			}
		}
	}
	if rebuildDepth != 0 {
		return fmt.Errorf("journal ends with %d unbalanced rebuild-begin event(s)", rebuildDepth)
	}
	return nil
}

// LintFile reads and lints the journal at path, returning the event count.
func LintFile(path string) (int, error) {
	events, err := ReadFile(path)
	if err != nil {
		return 0, err
	}
	return len(events), Lint(events)
}
