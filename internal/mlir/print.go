package mlir

import (
	"slices"
	"strconv"
	"strings"
)

// PrintState carries printer context: SSA value naming and indentation.
type PrintState struct {
	b     strings.Builder
	reg   *Registry
	names map[*Value]string
	// taken holds the names in use; nil when anonymize is set, since the
	// print-order numbers never collide.
	taken  map[string]bool
	nextID int
	indent int
	// anonymize drops user-chosen SSA value names and numbers every value
	// sequentially in print order (%0, %1, ...). PrintModuleCanonical sets
	// it so two modules that differ only in name spelling print
	// identically.
	anonymize bool
}

// PrintModule renders the module in MLIR pretty syntax.
func PrintModule(m *Module, reg *Registry) string {
	return newPrintState(reg, false).printModule(m)
}

// PrintModuleCanonical renders the module in canonical form: the same
// pretty syntax as PrintModule, but with every SSA value renamed to its
// sequential print-order number, so modules differing only in value-name
// spelling render byte-identically. This is the form the serving layer's
// content-addressed cache keys are derived from; it is a fixed point of
// parse/print (re-parsing and re-printing canonical output reproduces it
// exactly).
func PrintModuleCanonical(m *Module, reg *Registry) string {
	return newPrintState(reg, true).printModule(m)
}

func newPrintState(reg *Registry, anonymize bool) *PrintState {
	ps := &PrintState{reg: reg, names: make(map[*Value]string), anonymize: anonymize}
	if !anonymize {
		ps.taken = make(map[string]bool)
	}
	return ps
}

func (ps *PrintState) printModule(m *Module) string {
	ps.Write("module {\n")
	ps.indent++
	for _, op := range m.Body().Ops {
		ps.PrintOp(op)
	}
	ps.indent--
	ps.Write("}\n")
	return ps.b.String()
}

// Write appends raw text.
func (ps *PrintState) Write(s string) { ps.b.WriteString(s) }

// WriteType appends t's MLIR syntax.
func (ps *PrintState) WriteType(t Type) { writeType(&ps.b, t) }

// WriteResultTypes appends a result type list: one type bare, or a
// parenthesized list for zero, many, or a lone function type.
func (ps *PrintState) WriteResultTypes(ts []Type) { writeResultTypes(&ps.b, ts) }

// Indent writes the current indentation.
func (ps *PrintState) Indent() {
	for i := 0; i < ps.indent; i++ {
		ps.b.WriteString("  ")
	}
}

// WriteValueName appends the printed name (with %) of v, allocating one
// if needed.
func (ps *PrintState) WriteValueName(v *Value) {
	ps.b.WriteByte('%')
	ps.b.WriteString(ps.name(v))
}

// name returns v's printed name without the %. When anonymizing, every
// value gets the next print-order number, which no earlier name can hold.
func (ps *PrintState) name(v *Value) string {
	if n, ok := ps.names[v]; ok {
		return n
	}
	var name string
	if ps.anonymize {
		name = strconv.Itoa(ps.nextID)
		ps.nextID++
	} else {
		name = v.Name
		for name == "" || ps.taken[name] {
			name = strconv.Itoa(ps.nextID)
			ps.nextID++
		}
		ps.taken[name] = true
	}
	ps.names[v] = name
	return name
}

// PrintOperands writes a comma-separated operand list.
func (ps *PrintState) PrintOperands(vals []*Value) {
	for i, v := range vals {
		if i > 0 {
			ps.Write(", ")
		}
		ps.WriteValueName(v)
	}
}

// PrintValueTypes writes the comma-separated types of vals.
func (ps *PrintState) PrintValueTypes(vals []*Value) {
	for i, v := range vals {
		if i > 0 {
			ps.Write(", ")
		}
		ps.WriteType(v.Typ)
	}
}

// PrintOptionalFastMath writes ` fastmath<flag>` when the op carries a
// non-default fastmath attribute.
func (ps *PrintState) PrintOptionalFastMath(op *Operation) {
	if a, ok := op.GetAttr("fastmath"); ok {
		if fm, ok := a.(FastMathAttr); ok && fm.Flag != FastMathNone {
			ps.Write(" ")
			ps.Write(fm.String())
		}
	}
}

// PrintAttrDict writes {k = v, ...} for the given attributes, skipping the
// names in skip. Writes nothing when every attribute is skipped.
func (ps *PrintState) PrintAttrDict(attrs []NamedAttribute, skip ...string) {
	open := false
	for _, na := range attrs {
		if slices.Contains(skip, na.Name) {
			continue
		}
		if open {
			ps.Write(", ")
		} else {
			ps.Write(" {")
			open = true
		}
		ps.Write(na.Name)
		if _, isUnit := na.Attr.(UnitAttr); !isUnit {
			ps.Write(" = ")
			ps.Write(na.Attr.String())
		}
	}
	if open {
		ps.Write("}")
	}
}

// PrintRegion writes a brace-delimited region body (entry-block args are
// printed by the op's own syntax, e.g. scf.for's induction variable).
func (ps *PrintState) PrintRegion(r *Region) {
	ps.Write("{\n")
	ps.indent++
	for _, b := range r.Blocks {
		for _, op := range b.Ops {
			ps.PrintOp(op)
		}
	}
	ps.indent--
	ps.Indent()
	ps.Write("}")
}

// PrintRegionWithBlockHeader writes a region whose entry block declares
// its arguments with an MLIR block header (`^bb0(%x: t, ...):`), as
// scf.while's after-region requires.
func (ps *PrintState) PrintRegionWithBlockHeader(r *Region) {
	ps.Write("{\n")
	ps.indent++
	for bi, b := range r.Blocks {
		ps.Indent()
		ps.Write("^bb")
		writeInt(&ps.b, int64(bi))
		ps.Write("(")
		for i, a := range b.Args {
			if i > 0 {
				ps.Write(", ")
			}
			ps.WriteValueName(a)
			ps.Write(": ")
			ps.WriteType(a.Typ)
		}
		ps.Write("):\n")
		for _, op := range b.Ops {
			ps.PrintOp(op)
		}
	}
	ps.indent--
	ps.Indent()
	ps.Write("}")
}

// PrintOp writes one operation line (plus nested regions) with trailing
// newline.
func (ps *PrintState) PrintOp(op *Operation) {
	ps.Indent()
	if len(op.Results) > 0 {
		for i, r := range op.Results {
			if i > 0 {
				ps.Write(", ")
			}
			ps.WriteValueName(r)
		}
		ps.Write(" = ")
	}
	if def, ok := ps.reg.Lookup(op.Name); ok && def.Print != nil {
		ps.Write(op.Name)
		def.Print(ps, op)
	} else {
		ps.printGenericOp(op)
	}
	ps.Write("\n")
}

// printGenericOp emits the generic quoted form used for unregistered
// ("opaque") operations, which the parser accepts back.
func (ps *PrintState) printGenericOp(op *Operation) {
	// quoteAttrString, not %q: the parser only understands a restricted
	// escape set, and raw bytes round-trip.
	ps.Write(quoteAttrString(op.Name))
	ps.Write("(")
	ps.PrintOperands(op.Operands)
	ps.Write(")")
	if len(op.Regions) > 0 {
		ps.Write(" (")
		for i, r := range op.Regions {
			if i > 0 {
				ps.Write(", ")
			}
			// The generic form names its block arguments only in a
			// block header.
			if b := r.First(); b != nil && len(b.Args) > 0 {
				ps.PrintRegionWithBlockHeader(r)
			} else {
				ps.PrintRegion(r)
			}
		}
		ps.Write(")")
	}
	ps.PrintAttrDict(op.Attrs)
	ps.Write(" : (")
	ps.PrintValueTypes(op.Operands)
	ps.Write(") -> ")
	ps.PrintResultTypes(op)
}

// PrintResultTypes writes op's result types as WriteResultTypes does.
func (ps *PrintState) PrintResultTypes(op *Operation) {
	var buf [4]Type
	ts := buf[:0]
	for _, r := range op.Results {
		ts = append(ts, r.Typ)
	}
	ps.WriteResultTypes(ts)
}
