package dialegg

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dialegg/internal/egglog"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/sexp"
)

// Translation is the result of translating one function body into the
// e-graph (§5.3: every SSA value becomes an e-node; the paper writes them
// as let bindings, which Optimizer.EggProgram still prints), plus the
// bookkeeping needed to translate back.
type Translation struct {
	// Root is the e-node of the function body's block; extraction starts
	// there.
	Root egraph.Value
	// Nodes maps each translated operation to the e-node inserted for it
	// (a Value leaf for an opaque one). Rewrite explanations compare it
	// with the node extraction chose.
	Nodes map[*mlir.Operation]Node
	// Leaves lists, by the i64 identifier inside (Value id type) terms,
	// the original value each such leaf stands for.
	Leaves []Leaf
	// NumTranslated counts MLIR ops that received a structural encoding.
	NumTranslated int
	// NumOpaque counts MLIR ops that became opaque Values.
	NumOpaque int
}

// Node is an e-node as the translation inserted it: the function, its
// arguments and the value the insertion returned (the node's original
// identity, which proofs are anchored at).
type Node struct {
	Fn   *egraph.Function
	Args []egraph.Value
	Out  egraph.Value
}

// Leaf is what a (Value id type) node stands for: a block argument, or a
// result of an operation without a structural encoding (Op set), which
// back-translation re-emits. Value is nil for a zero-result Op.
type Leaf struct {
	Value *mlir.Value
	Op    *mlir.Operation
}

// leaf returns the leaf of Value id, if translation assigned it.
func (tr *Translation) leaf(id int64) (Leaf, bool) {
	if id < 0 || id >= int64(len(tr.Leaves)) {
		return Leaf{}, false
	}
	return tr.Leaves[id], true
}

// builtin names a prelude constructor the translation applies. Prepare
// resolves each to its function once per rule-set template
// (Encodings.fns).
type builtin uint8

const (
	bI1 builtin = iota
	bI8
	bI16
	bI32
	bI64
	bF16
	bF32
	bF64
	bIndex
	bNone
	bRankedTensor
	bUnrankedTensor
	bOpaqueType
	bIntegerAttr
	bFloatAttr
	bStringAttr
	bSymbolAttr
	bUnitAttr
	bTypeAttr
	bDenseAttr
	bOpaqueAttr
	bFastMath
	bFMNone
	bFMFast
	bFMNNaN
	bFMNInf
	bFMContract
	bFMReassoc
	bNamedAttr
	bValue
	bBlk
	bReg
	numBuiltins
)

// builtinNames are the prelude names of the builtins.
var builtinNames = [numBuiltins]string{
	bI1: "I1", bI8: "I8", bI16: "I16", bI32: "I32", bI64: "I64",
	bF16: "F16", bF32: "F32", bF64: "F64",
	bIndex: "Index", bNone: "None",
	bRankedTensor: "RankedTensor", bUnrankedTensor: "UnrankedTensor", bOpaqueType: "OpaqueType",
	bIntegerAttr: "IntegerAttr", bFloatAttr: "FloatAttr", bStringAttr: "StringAttr",
	bSymbolAttr: "SymbolAttr", bUnitAttr: "UnitAttr", bTypeAttr: "TypeAttr",
	bDenseAttr: "DenseAttr", bOpaqueAttr: "OpaqueAttr",
	bFastMath: "arith_fastmath",
	bFMNone:   "none", bFMFast: "fast", bFMNNaN: "nnan", bFMNInf: "ninf",
	bFMContract: "contract", bFMReassoc: "reassoc",
	bNamedAttr: "NamedAttr", bValue: "Value", bBlk: "Blk", bReg: "Reg",
}

// intTypes and floatTypes are the widths with a structural encoding.
var (
	intTypes   = map[int]builtin{1: bI1, 8: bI8, 16: bI16, 32: bI32, 64: bI64}
	floatTypes = map[int]builtin{16: bF16, 32: bF32, 64: bF64}
)

// fastMathFlags maps each fastmath flag to its FastMathFlags variant.
var fastMathFlags = [...]builtin{
	mlir.FastMathNone:     bFMNone,
	mlir.FastMathFast:     bFMFast,
	mlir.FastMathNNaN:     bFMNNaN,
	mlir.FastMathNInf:     bFMNInf,
	mlir.FastMathContract: bFMContract,
	mlir.FastMathReassoc:  bFMReassoc,
}

// term is one translated term: its e-node's value when the translation
// inserts, its s-expression when it renders.
type term struct {
	v egraph.Value
	n *sexp.Node
}

// sink is where the translation writes each term as it builds it. An
// inserting sink (p set) adds every application to p's e-graph at once,
// through the function handles Prepare resolved, and a custom codec's
// term through p.EvalExpr. A rendering sink (the zero value) builds the
// s-expression instead and collects the (let opN term) commands. Both
// receive the same calls in the same order, so one walk defines the
// translation and the order its nodes are inserted in. The first
// insertion error is kept and stops further insertion.
type sink struct {
	p    *egglog.Program
	g    *egraph.EGraph
	fns  *[numBuiltins]*egraph.Function
	lets []*sexp.Node
	// vals holds a vector's elements while it is interned.
	vals []egraph.Value
	err  error
}

// apply emits f(args); name is f's name, which a rendering sink writes.
func (s *sink) apply(name string, f *egraph.Function, args ...term) term {
	if s.p == nil {
		l := make([]*sexp.Node, len(args)+1)
		l[0] = sexp.Symbol(name)
		for i, a := range args {
			l[i+1] = a.n
		}
		return term{n: sexp.List(l...)}
	}
	if s.err != nil {
		return term{}
	}
	var buf [8]egraph.Value
	vals := buf[:0]
	for _, a := range args {
		vals = append(vals, a.v)
	}
	v, err := s.g.Insert(f, vals...)
	if err != nil {
		s.err = err
	}
	return term{v: v}
}

// con emits the builtin constructor k applied to args.
func (s *sink) con(k builtin, args ...term) term {
	var f *egraph.Function
	if s.fns != nil {
		f = s.fns[k]
	}
	return s.apply(builtinNames[k], f, args...)
}

// vec emits the vector of elems that builtin k takes as its first
// argument.
func (s *sink) vec(k builtin, elems []term) term {
	if s.p == nil {
		l := make([]*sexp.Node, len(elems)+1)
		l[0] = sexp.Symbol("vec-of")
		for i, e := range elems {
			l[i+1] = e.n
		}
		return term{n: sexp.List(l...)}
	}
	if s.err != nil {
		return term{}
	}
	s.vals = s.vals[:0]
	for _, e := range elems {
		s.vals = append(s.vals, e.v)
	}
	return term{v: s.g.InternVec(s.fns[k].Params[0], s.vals)}
}

func (s *sink) i64(x int64) term {
	if s.p == nil {
		return term{n: sexp.Int(x)}
	}
	return term{v: egraph.I64Value(s.g.I64, x)}
}

func (s *sink) f64(x float64) term {
	if s.p == nil {
		return term{n: sexp.Float(x)}
	}
	return term{v: egraph.F64Value(s.g.F64, x)}
}

func (s *sink) str(x string) term {
	if s.p == nil {
		return term{n: sexp.String(x)}
	}
	return term{v: s.g.InternString(x)}
}

// expr emits a custom codec's term, evaluating it as a top-level
// expression.
func (s *sink) expr(n *sexp.Node) term {
	if s.p == nil {
		return term{n: n}
	}
	if s.err != nil {
		return term{}
	}
	v, err := s.p.EvalExpr(n)
	if err != nil {
		s.err = err
	}
	return term{v: v}
}

// let binds t as let number i: a rendering sink appends (let opI t) and
// returns the name, an inserting sink returns t.
func (s *sink) let(i int, t term) term {
	if s.p != nil {
		return t
	}
	name := sexp.Symbol("op" + strconv.Itoa(i))
	s.lets = append(s.lets, sexp.List(sexp.Symbol("let"), name, t.n))
	return term{n: name}
}

// typ emits t's built-in encoding (§4.1). Types without a structural
// encoding become (OpaqueType serialized name).
func (s *sink) typ(t mlir.Type) term {
	switch tt := t.(type) {
	case mlir.IntegerType:
		if k, ok := intTypes[tt.Width]; ok {
			return s.con(k)
		}
	case mlir.FloatType:
		if k, ok := floatTypes[tt.Width]; ok {
			return s.con(k)
		}
	case mlir.IndexType:
		return s.con(bIndex)
	case mlir.NoneType:
		return s.con(bNone)
	case mlir.RankedTensorType:
		var buf [4]term
		dims := buf[:0]
		for _, d := range tt.Shape {
			dims = append(dims, s.i64(d))
		}
		return s.con(bRankedTensor, s.vec(bRankedTensor, dims), s.typ(tt.Elem))
	case mlir.UnrankedTensorType:
		return s.con(bUnrankedTensor, s.typ(tt.Elem))
	}
	return s.con(bOpaqueType, s.str(t.String()), s.str(typeName(t)))
}

// attr emits a's built-in encoding (§4.2).
func (s *sink) attr(a mlir.Attribute) term {
	switch at := a.(type) {
	case mlir.IntegerAttr:
		return s.con(bIntegerAttr, s.i64(at.Value), s.typ(at.Type))
	case mlir.FloatAttr:
		return s.con(bFloatAttr, s.f64(at.Value), s.typ(at.Type))
	case mlir.StringAttr:
		return s.con(bStringAttr, s.str(at.Value))
	case mlir.SymbolRefAttr:
		return s.con(bSymbolAttr, s.str(at.Symbol))
	case mlir.UnitAttr:
		return s.con(bUnitAttr)
	case mlir.TypeAttr:
		return s.con(bTypeAttr, s.typ(at.Type))
	case mlir.FastMathAttr:
		flag := bFMNone
		if at.Flag >= 0 && int(at.Flag) < len(fastMathFlags) {
			flag = fastMathFlags[at.Flag]
		}
		return s.con(bFastMath, s.con(flag))
	case mlir.DenseAttr:
		return s.con(bDenseAttr, s.attr(at.Splat), s.typ(at.Type))
	default:
		return s.con(bOpaqueAttr, s.str(a.String()))
	}
}

// codecTyp emits t through its custom codec's term tn, or through the
// built-in encoding when no codec matched (tn nil).
func (s *sink) codecTyp(t mlir.Type, tn *sexp.Node) term {
	if tn != nil {
		return s.expr(tn)
	}
	return s.typ(t)
}

// translator carries state across one function translation.
type translator struct {
	s      sink
	encs   *Encodings
	codecs *Codecs
	out    *Translation
	// vals holds the term of every SSA value translated so far.
	vals map[*mlir.Value]term
	// terms is a stack: each translated block leaves its operations'
	// terms on it until the enclosing node is built.
	terms []term
	// args holds the arguments of the nodes in out.Nodes.
	args []egraph.Value
	// lets counts let bindings (Optimizer.EggProgram names them opN).
	lets int
}

// translateFunc translates the body of a func.func, inserting its e-nodes
// into p's e-graph as it walks the operations. Types and attributes are
// encoded with codecs' custom eggifiers first (§5.2; nil uses only the
// built-in encodings). Nodes are inserted in the order evaluating the
// function's (let opN term) program would insert them (DESIGN.md §15):
// a let's nested-region lets first, then its attribute terms, region
// vectors, result type and node, post-order, left to right.
func translateFunc(f *mlir.Operation, encs *Encodings, codecs *Codecs, p *egglog.Program) (*Translation, error) {
	t, err := newTranslator(f, encs, codecs, sink{p: p, g: p.Graph(), fns: &encs.fns})
	if err != nil {
		return nil, err
	}
	if t.s.err != nil {
		return nil, fmt.Errorf("dialegg: loading translated program: %w", t.s.err)
	}
	return t.out, nil
}

// renderFunc translates the body of a func.func into its (let opN term)
// commands without inserting anything.
func renderFunc(f *mlir.Operation, encs *Encodings, codecs *Codecs) ([]*sexp.Node, error) {
	t, err := newTranslator(f, encs, codecs, sink{})
	if err != nil {
		return nil, err
	}
	return t.s.lets, nil
}

// newTranslator translates f's body into s. The function must have a
// single-block body (structured control flow nests in regions, which are
// handled recursively).
func newTranslator(f *mlir.Operation, encs *Encodings, codecs *Codecs, s sink) (*translator, error) {
	if f.Name != "func.func" {
		return nil, fmt.Errorf("dialegg: expected func.func, got %s", f.Name)
	}
	entry := f.Regions[0].First()
	if entry == nil {
		return nil, fmt.Errorf("dialegg: function has no body")
	}
	t := &translator{
		s:      s,
		encs:   encs,
		codecs: codecs,
		out:    &Translation{Nodes: make(map[*mlir.Operation]Node, len(entry.Ops))},
		vals:   make(map[*mlir.Value]term, len(entry.Args)+len(entry.Ops)),
		terms:  make([]term, 0, len(entry.Ops)+16),
	}
	if s.p != nil {
		// About four arguments per node.
		t.args = make([]egraph.Value, 0, 4*len(entry.Ops))
	}
	// Function arguments become Value terms (§5.4 line 3).
	for _, arg := range entry.Args {
		if _, err := t.value(arg); err != nil {
			return nil, err
		}
	}
	if err := t.block(entry); err != nil {
		return nil, err
	}
	blk := t.s.con(bBlk, t.s.vec(bBlk, t.terms))
	t.out.Root = t.s.let(t.fresh(), blk).v
	return t, nil
}

func (t *translator) fresh() int {
	t.lets++
	return t.lets - 1
}

// leaf assigns the next Value id to l.
func (t *translator) leaf(l Leaf) int64 {
	t.out.Leaves = append(t.out.Leaves, l)
	return int64(len(t.out.Leaves) - 1)
}

// node records the e-node just inserted for op.
func (t *translator) node(op *mlir.Operation, f *egraph.Function, args []term, out term) {
	if t.s.p == nil {
		return
	}
	start := len(t.args)
	for _, a := range args {
		t.args = append(t.args, a.v)
	}
	t.out.Nodes[op] = Node{Fn: f, Args: t.args[start:len(t.args):len(t.args)], Out: out.v}
}

// value creates the (Value id type) binding for a block argument and
// returns its term.
func (t *translator) value(v *mlir.Value) (term, error) {
	if tm, ok := t.vals[v]; ok {
		return tm, nil
	}
	id := t.leaf(Leaf{Value: v})
	i := t.fresh()
	tn, err := t.codecs.eggifyType(v.Typ)
	if err != nil {
		return term{}, err
	}
	tm := t.s.let(i, t.s.con(bValue, t.s.i64(id), t.s.codecTyp(v.Typ, tn)))
	t.vals[v] = tm
	return tm, nil
}

// block translates every op of b, leaving their terms on t.terms in
// order.
func (t *translator) block(b *mlir.Block) error {
	for _, op := range b.Ops {
		tm, err := t.op(op)
		if err != nil {
			return err
		}
		t.terms = append(t.terms, tm)
	}
	return nil
}

// op translates one operation, returning its term (the op's result value
// for single-result ops).
func (t *translator) op(op *mlir.Operation) (term, error) {
	if enc, ok := t.encs.Lookup(op.Name, len(op.Operands)); ok {
		if tm, err := t.encoded(op, enc); err == nil {
			return tm, nil
		}
		// An encoding mismatch (attribute/region/result layout) degrades
		// to the opaque path rather than failing the translation.
	}
	return t.opaque(op)
}

// codecAttr is one attribute of an encoded op, with its custom codec's
// term (nil for the built-in encoding).
type codecAttr struct {
	mlir.NamedAttribute
	tn *sexp.Node
}

// attrsFor orders the op's attributes alphabetically into buf and
// eggifies custom ones, synthesizing a default fastmath<none> when the
// encoding expects one more attribute than the op carries (§4.2; the
// paper's example emits fmnone for ops without an explicit fastmath flag).
func (t *translator) attrsFor(op *mlir.Operation, want int, buf []codecAttr) ([]codecAttr, error) {
	attrs := buf
	for _, na := range op.Attrs {
		attrs = append(attrs, codecAttr{NamedAttribute: na})
	}
	if len(attrs) == want-1 {
		if _, has := mlir.GetAttr(op.Attrs, "fastmath"); !has {
			attrs = append(attrs, codecAttr{NamedAttribute: mlir.NamedAttribute{
				Name: "fastmath",
				Attr: mlir.FastMathAttr{Flag: mlir.FastMathNone},
			}})
		}
	}
	if len(attrs) != want {
		return nil, fmt.Errorf("op has %d attributes, encoding wants %d", len(attrs), want)
	}
	slices.SortStableFunc(attrs, func(a, b codecAttr) int { return strings.Compare(a.Name, b.Name) })
	for i := range attrs {
		tn, err := t.codecs.eggifyAttr(attrs[i].Attr)
		if err != nil {
			return nil, err
		}
		attrs[i].tn = tn
	}
	return attrs, nil
}

// encoded translates op with its structural encoding. Everything that can
// fail (attribute codecs, operands, regions, the result type's codec) runs
// before the op's own terms are emitted, so a mismatch leaves behind only
// the lets of the regions translated so far, as it always has.
func (t *translator) encoded(op *mlir.Operation, enc *OpEncoding) (term, error) {
	if len(op.Results) > 1 {
		return term{}, fmt.Errorf("multi-result op")
	}
	if len(op.Regions) != enc.NumRegions {
		return term{}, fmt.Errorf("op has %d regions, encoding wants %d", len(op.Regions), enc.NumRegions)
	}
	if enc.HasResultType && len(op.Results) != 1 {
		return term{}, fmt.Errorf("encoding carries a result type but op has %d results", len(op.Results))
	}
	var abuf [4]codecAttr
	attrs, err := t.attrsFor(op, enc.NumAttrs, abuf[:0])
	if err != nil {
		return term{}, err
	}

	// Operand terms, then each region's block terms, wait on the stack.
	base := len(t.terms)
	fail := func(err error) (term, error) {
		t.terms = t.terms[:base]
		return term{}, err
	}
	for _, operand := range op.Operands {
		tm, err := t.operand(operand)
		if err != nil {
			return fail(err)
		}
		t.terms = append(t.terms, tm)
	}
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			for _, arg := range b.Args {
				if _, err := t.value(arg); err != nil {
					return fail(err)
				}
			}
			if err := t.block(b); err != nil {
				return fail(err)
			}
		}
	}
	var typeTn *sexp.Node
	if enc.HasResultType {
		if typeTn, err = t.codecs.eggifyType(op.Results[0].Typ); err != nil {
			return fail(err)
		}
	}

	// The node's arguments: operands, attributes, regions, result type.
	s := &t.s
	argBase := len(t.terms)
	t.terms = append(t.terms, t.terms[base:base+len(op.Operands)]...)
	for _, a := range attrs {
		var at term
		if a.tn != nil {
			at = s.expr(a.tn)
		} else {
			at = s.attr(a.Attr)
		}
		t.terms = append(t.terms, s.con(bNamedAttr, s.str(a.Name), at))
	}
	pos := base + len(op.Operands)
	for _, r := range op.Regions {
		blkBase := len(t.terms)
		for _, b := range r.Blocks {
			blk := s.con(bBlk, s.vec(bBlk, t.terms[pos:pos+len(b.Ops)]))
			t.terms = append(t.terms, blk)
			pos += len(b.Ops)
		}
		reg := s.con(bReg, s.vec(bReg, t.terms[blkBase:]))
		t.terms = append(t.terms[:blkBase], reg)
	}
	if enc.HasResultType {
		t.terms = append(t.terms, s.codecTyp(op.Results[0].Typ, typeTn))
	}
	args := t.terms[argBase:]
	tm := s.let(t.fresh(), s.apply(enc.EggName, enc.fn, args...))
	t.node(op, enc.fn, args, tm)
	t.terms = t.terms[:base]
	if len(op.Results) == 1 {
		t.vals[op.Results[0]] = tm
	}
	t.out.NumTranslated++
	return tm, nil
}

// operand resolves the term of an operand's defining node.
func (t *translator) operand(v *mlir.Value) (term, error) {
	if tm, ok := t.vals[v]; ok {
		return tm, nil
	}
	// Block arguments are pre-registered; an unseen value here is a
	// forward reference, which SSA rules out.
	if v.IsBlockArg() {
		return t.value(v)
	}
	return term{}, fmt.Errorf("dialegg: operand %s used before definition", v)
}

// opaque emits the (Value id type) stand-in for an operation with no
// (matching) encoding. Multi-result ops get one Value per result;
// zero-result ops get a None-typed Value that only serves to keep their
// block position.
func (t *translator) opaque(op *mlir.Operation) (term, error) {
	t.out.NumOpaque++
	var typ mlir.Type = mlir.NoneType{}
	first := Leaf{Op: op}
	if len(op.Results) >= 1 {
		typ, first.Value = op.Results[0].Typ, op.Results[0]
	}
	id := t.leaf(first)
	i := t.fresh()
	tn, err := t.codecs.eggifyType(typ)
	if err != nil {
		return term{}, err
	}
	s := &t.s
	args := [2]term{s.i64(id), s.codecTyp(typ, tn)}
	tm := s.let(i, s.con(bValue, args[:]...))
	t.node(op, t.encs.fns[bValue], args[:], tm)
	if len(op.Results) >= 1 {
		t.vals[op.Results[0]] = tm
	}
	// Extra results each get their own Value binding keyed by fresh ids.
	for r := 1; r < len(op.Results); r++ {
		id2 := t.leaf(Leaf{Value: op.Results[r], Op: op})
		i2 := t.fresh()
		tn2, err := t.codecs.eggifyType(op.Results[r].Typ)
		if err != nil {
			return term{}, err
		}
		t.vals[op.Results[r]] = s.let(i2, s.con(bValue, s.i64(id2), s.codecTyp(op.Results[r].Typ, tn2)))
	}
	return tm, nil
}
