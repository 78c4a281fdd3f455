package egraph

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a process-independent JSON export of the full e-graph state:
// the class map (every allocated e-class ID to its canonical root) and
// every live row of every table, with values rendered by content (string
// and vector pool numbering is process-local and deliberately excluded).
// Two runs that evolved identically — e.g. an original run and its journal
// replay — produce byte-identical compact marshals, which is the
// bit-identity check `egg-debug replay -verify` performs.
//
// Take snapshots of a clean (rebuilt) graph; the saturation runner emits
// them right after each iteration's rebuild.
type Snapshot struct {
	// Iteration is the graph-lifetime iteration the snapshot was taken at.
	Iteration int `json:"iteration"`
	// Nodes and Classes are the live e-node and e-class counts.
	Nodes   int `json:"nodes"`
	Classes int `json:"classes"`
	// ClassMap maps every allocated e-class ID (index) to its canonical
	// root.
	ClassMap []uint32 `json:"class_map"`
	// Functions lists every table's live rows in declaration/insertion
	// order.
	Functions []FnSnap `json:"functions"`
}

// FnSnap is one function table in a snapshot.
type FnSnap struct {
	Name string    `json:"name"`
	Rows []RowSnap `json:"rows"`
}

// RowSnap is one live table row: rendered argument tuple and output, the
// output's canonical class (constructors), provenance, and any
// unstable-cost override in force for the node.
type RowSnap struct {
	Args  []string `json:"args"`
	Out   string   `json:"out"`
	Class string   `json:"class,omitempty"`
	Rule  string   `json:"rule,omitempty"`
	Iter  int      `json:"iter,omitempty"`
	Cost  *int64   `json:"cost,omitempty"`
}

// Snapshot exports the current state. iteration is recorded verbatim
// (callers pass the saturation iteration the state corresponds to).
func (g *EGraph) Snapshot(iteration int) *Snapshot {
	s := &Snapshot{
		Iteration: iteration,
		Nodes:     g.NumNodes(),
		Classes:   g.NumClasses(),
		ClassMap:  make([]uint32, g.uf.Len()),
	}
	for i := range s.ClassMap {
		s.ClassMap[i] = g.uf.Find(uint32(i))
	}
	for _, f := range g.funcs {
		fs := FnSnap{Name: f.Name}
		rows := g.tab(f).rows
		for ri := range rows {
			r := &rows[ri]
			if r.dead {
				continue
			}
			rs := RowSnap{
				Args: make([]string, len(r.args)),
				Out:  g.renderValue(r.out),
				Rule: g.ruleName(r.provRule),
				Iter: int(r.provIter),
			}
			for i, a := range r.args {
				rs.Args[i] = g.renderValue(a)
			}
			if f.IsConstructor() {
				rs.Class = fmt.Sprintf("#%d", g.uf.Find(uint32(r.out.Bits)))
			}
			if g.costs[f.id] != nil {
				if c, ok := g.costs[f.id][argsKey(r.args)]; ok {
					cc := c
					rs.Cost = &cc
				}
			}
			fs.Rows = append(fs.Rows, rs)
		}
		s.Functions = append(s.Functions, fs)
	}
	return s
}

// renderValue renders a value by content for snapshots and diffs: e-class
// IDs as "#N", strings quoted, floats in shortest round-trip form, vectors
// element-wise.
func (g *EGraph) renderValue(v Value) string {
	switch v.Sort.Kind {
	case KindEq:
		return "#" + strconv.FormatUint(v.Bits, 10)
	case KindI64:
		return strconv.FormatInt(v.AsI64(), 10)
	case KindF64:
		return strconv.FormatFloat(v.AsF64(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(g.StringOf(v))
	case KindBool:
		return strconv.FormatBool(v.AsBool())
	case KindVec:
		elems := g.VecElems(v)
		parts := make([]string, len(elems))
		for i, e := range elems {
			parts[i] = g.renderValue(e)
		}
		return "[" + strings.Join(parts, " ") + "]"
	default:
		return "()"
	}
}

// SnapshotDiff describes how the e-graph changed between two snapshots of
// the same graph (from earlier, to later).
type SnapshotDiff struct {
	FromIter int `json:"from_iter"`
	ToIter   int `json:"to_iter"`
	// ClassesMerged groups the from-snapshot's canonical roots that share
	// a canonical root in the to-snapshot: each group of ≥ 2 classes was
	// merged into one between the snapshots. Groups and members ascend.
	ClassesMerged [][]uint32 `json:"classes_merged,omitempty"`
	// NodesAdded and NodesKilled list rows present in only one snapshot,
	// rendered as "fn(args) = out" with all class IDs remapped to the
	// to-snapshot's canonicalization so merged classes compare equal.
	NodesAdded  []string `json:"nodes_added,omitempty"`
	NodesKilled []string `json:"nodes_killed,omitempty"`
}

var classIDPat = regexp.MustCompile(`#(\d+)`)

// remapClasses rewrites every "#N" in a rendered row through the (later)
// class map, so rows from both snapshots are compared under one
// canonicalization.
func remapClasses(s string, classMap []uint32) string {
	return classIDPat.ReplaceAllStringFunc(s, func(m string) string {
		id, err := strconv.ParseUint(m[1:], 10, 32)
		if err != nil || id >= uint64(len(classMap)) {
			return m
		}
		return "#" + strconv.FormatUint(uint64(classMap[id]), 10)
	})
}

// rowKey renders a snapshot row as a single comparable line.
func rowKey(fn string, r RowSnap) string {
	return fn + "(" + strings.Join(r.Args, ", ") + ") = " + r.Out
}

// DiffSnapshots reports what changed from one snapshot to a later one of
// the same graph: classes merged, nodes added, and nodes killed (rows that
// became congruent duplicates and were tombstoned).
func DiffSnapshots(from, to *Snapshot) *SnapshotDiff {
	d := &SnapshotDiff{FromIter: from.Iteration, ToIter: to.Iteration}

	// Classes merged: group the from-roots by their to-root.
	fromRoots := make(map[uint32]bool)
	for _, r := range from.ClassMap {
		fromRoots[r] = true
	}
	groups := make(map[uint32][]uint32)
	for r := range fromRoots {
		tr := r
		if int(r) < len(to.ClassMap) {
			tr = to.ClassMap[r]
		}
		groups[tr] = append(groups[tr], r)
	}
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		d.ClassesMerged = append(d.ClassesMerged, members)
	}
	sort.Slice(d.ClassesMerged, func(i, j int) bool {
		return d.ClassesMerged[i][0] < d.ClassesMerged[j][0]
	})

	// Nodes: compare rows under the to-snapshot's canonicalization.
	keysOf := func(s *Snapshot) map[string]bool {
		keys := make(map[string]bool)
		for _, fs := range s.Functions {
			for _, r := range fs.Rows {
				keys[remapClasses(rowKey(fs.Name, r), to.ClassMap)] = true
			}
		}
		return keys
	}
	fromKeys, toKeys := keysOf(from), keysOf(to)
	for k := range toKeys {
		if !fromKeys[k] {
			d.NodesAdded = append(d.NodesAdded, k)
		}
	}
	for k := range fromKeys {
		if !toKeys[k] {
			d.NodesKilled = append(d.NodesKilled, k)
		}
	}
	sort.Strings(d.NodesAdded)
	sort.Strings(d.NodesKilled)
	return d
}

// Format renders the diff as a human-readable report.
func (d *SnapshotDiff) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diff: iteration %d -> %d\n", d.FromIter, d.ToIter)
	fmt.Fprintf(&b, "  classes merged: %d group(s)\n", len(d.ClassesMerged))
	for _, grp := range d.ClassesMerged {
		parts := make([]string, len(grp))
		for i, c := range grp {
			parts[i] = fmt.Sprintf("#%d", c)
		}
		fmt.Fprintf(&b, "    {%s}\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "  nodes added: %d\n", len(d.NodesAdded))
	for _, n := range d.NodesAdded {
		fmt.Fprintf(&b, "    + %s\n", n)
	}
	fmt.Fprintf(&b, "  nodes killed: %d\n", len(d.NodesKilled))
	for _, n := range d.NodesKilled {
		fmt.Fprintf(&b, "    - %s\n", n)
	}
	return b.String()
}
