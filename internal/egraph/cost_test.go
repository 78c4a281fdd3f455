package egraph

import (
	"bytes"
	"strings"
	"testing"

	"dialegg/internal/obs/journal"
)

// overrideOf returns the unstable-cost override on the live row of
// f(args), 0 when the row has none; ok is false when no live row holds
// f(args).
func overrideOf(g *EGraph, f *Function, args ...Value) (cost int64, ok bool) {
	canon := make([]Value, len(args))
	for i, a := range args {
		canon[i] = g.Find(a)
	}
	t := g.tab(f)
	i, ok := t.lookupRow(canon)
	if !ok {
		return 0, false
	}
	return t.rows[i].cost, true
}

// journaledExprLang returns the test language with a journal attached
// and the buffer it writes to.
func journaledExprLang(t *testing.T) (*exprLang, *bytes.Buffer) {
	t.Helper()
	l := newExprLang(t)
	var buf bytes.Buffer
	l.g.SetJournal(journal.NewWriter(&buf), "cost")
	return l, &buf
}

// readJournal flushes g's journal and decodes what it wrote to buf.
func readJournal(t *testing.T, g *EGraph, buf *bytes.Buffer) []journal.Event {
	t.Helper()
	if err := g.Journal().Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Lint(events); err != nil {
		t.Fatalf("journal fails lint: %v", err)
	}
	return events
}

// checkReplay replays events and requires the final state to equal g's.
func checkReplay(t *testing.T, g *EGraph, events []journal.Event) {
	t.Helper()
	rg, _, err := Replay(events, ReplayOptions{ToIter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapJSON(t, rg, 0), snapJSON(t, g, 0); !bytes.Equal(got, want) {
		t.Errorf("replay diverged:\n original: %s\n replayed: %s", want, got)
	}
}

// TestCostOverrideLivesOnRow pins the row semantics of unstable-cost
// overrides. When a union makes two priced rows congruent, Rebuild kills
// one and the survivor keeps the cheaper override, whichever row
// survives, in extraction and in Snapshot. An override for a node with no
// row inserts the node first, and the journal records the insert before
// the cost. Every journal replays to the same state.
func TestCostOverrideLivesOnRow(t *testing.T) {
	for _, tc := range []struct {
		name         string
		costA, costB int64 // overrides on Mul(x, a) and Mul(x, b)
		rootB        bool  // union into b's class, so Mul(x, a) dies
	}{
		{"cheap-survives", 3, 7, false},
		{"cheap-dies", 7, 3, false},
		{"cheap-survives/b-root", 7, 3, true},
		{"cheap-dies/b-root", 3, 7, true},
	} {
		t.Run("congruent/"+tc.name, func(t *testing.T) {
			l, buf := journaledExprLang(t)
			g := l.g
			x, a, b := l.num(t, 0), l.num(t, 1), l.num(t, 2)
			ma := l.app(t, l.Mul, x, a)
			l.app(t, l.Mul, x, b)
			for _, c := range []struct {
				arg  Value
				cost int64
			}{{a, tc.costA}, {b, tc.costB}} {
				if err := g.SetNodeCost(l.Mul, []Value{x, c.arg}, c.cost); err != nil {
					t.Fatal(err)
				}
			}
			if tc.rootB {
				g.Union(b, a)
			} else {
				g.Union(a, b)
			}
			g.Rebuild()

			rows := g.tab(l.Mul).rows
			if dead := []bool{rows[0].dead, rows[1].dead}; dead[0] != tc.rootB || dead[1] == tc.rootB {
				t.Fatalf("dead rows = %v; the union should kill Mul(x, a) exactly when b is the root", dead)
			}
			if c, ok := overrideOf(g, l.Mul, x, a); !ok || c != 3 {
				t.Errorf("surviving override = %d (row found %v), want the cheaper 3", c, ok)
			}
			// Mul(x, a) costs its override plus one per Num child.
			if cost, ok := NewExtractor(g).CostOf(ma); !ok || cost != 5 {
				t.Errorf("extracted cost = %d, %v; want 3 + 1 + 1", cost, ok)
			}
			var costs []int64
			for _, fs := range g.Snapshot(0).Functions {
				if fs.Name != "Mul" {
					continue
				}
				for _, r := range fs.Rows {
					if r.Cost != nil {
						costs = append(costs, *r.Cost)
					}
				}
			}
			if len(costs) != 1 || costs[0] != 3 {
				t.Errorf("snapshot Mul costs = %v, want [3]", costs)
			}
			checkReplay(t, g, readJournal(t, g, buf))
		})
	}

	t.Run("absent-node", func(t *testing.T) {
		l, buf := journaledExprLang(t)
		g := l.g
		x, y := l.num(t, 1), l.num(t, 2)
		if _, ok := g.Lookup(l.Div, x, y); ok {
			t.Fatal("Div(x, y) exists before the override")
		}
		if err := g.SetNodeCost(l.Div, []Value{x, y}, 5); err != nil {
			t.Fatal(err)
		}
		div, ok := g.Lookup(l.Div, x, y)
		if !ok {
			t.Fatal("the override did not insert Div(x, y)")
		}
		// Div's declared cost is 2; the override makes it 5 + 1 + 1.
		if cost, ok := NewExtractor(g).CostOf(div); !ok || cost != 7 {
			t.Errorf("extracted cost = %d, %v; want 7", cost, ok)
		}
		g.Rebuild()
		events := readJournal(t, g, buf)
		var kinds []string
		for _, e := range events {
			if e.Fn == "Div" {
				kinds = append(kinds, e.Kind)
			}
		}
		if got := strings.Join(kinds, " "); got != "fn insert cost" {
			t.Errorf("Div events = %q, want the declaration, the insert, then the cost", got)
		}
		checkReplay(t, g, events)
	})
}

// TestBadCostEventsRejected feeds hand-edited journals to replay and
// lint. A cost event whose arguments name no row diverges in replay
// rather than pricing a node that does not exist; a cost below 1, which
// no install writes and a row would read as "no override", fails lint.
func TestBadCostEventsRejected(t *testing.T) {
	l, buf := journaledExprLang(t)
	g := l.g
	x, y := l.num(t, 1), l.num(t, 2)
	l.app(t, l.Add, x, y)
	if err := g.SetNodeCost(l.Add, []Value{x, y}, 4); err != nil {
		t.Fatal(err)
	}
	events := readJournal(t, g, buf)
	checkReplay(t, g, events)
	ci := -1
	for i, e := range events {
		if e.Kind == journal.KCost {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatal("journal holds no cost event")
	}
	edited := func(edit func(e *journal.Event)) []journal.Event {
		cp := append([]journal.Event(nil), events...)
		e := cp[ci]
		e.Args = append([]journal.Val(nil), e.Args...)
		edit(&e)
		cp[ci] = e
		return cp
	}

	// Add(y, x) was never inserted.
	noRow := edited(func(e *journal.Event) { e.Args[0], e.Args[1] = e.Args[1], e.Args[0] })
	if _, _, err := Replay(noRow, ReplayOptions{ToIter: -1}); err == nil || !strings.Contains(err.Error(), "diverged: Add row not found") {
		t.Errorf("replay of a cost event with no row: err = %v, want a divergence", err)
	}

	zero := edited(func(e *journal.Event) { e.Cost = 0 })
	if err := journal.Lint(zero); err == nil || !strings.Contains(err.Error(), "cost 0 below 1") {
		t.Errorf("lint of a cost-0 event: err = %v, want a rejection", err)
	}
}
