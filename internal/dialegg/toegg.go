package dialegg

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

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

// Term is one term an Encoder emitted: its e-node's value when the
// encoder inserts, its s-expression when it renders.
type Term struct {
	v egraph.Value
	n *sexp.Node
}

// Encoder is the translation's sink: the translation writes each term
// through it as it builds it, and a custom codec's Eggify builds its
// node's arguments with it. An inserting encoder (g set) adds every
// application to g at once, through the function handles Prepare
// resolved; a rendering encoder (g nil) builds the s-expression instead
// and collects the (let opN term) commands. Both receive the same calls
// in the same order, so one walk defines the translation and the order
// its nodes are inserted in. The first insertion error is kept and stops
// further insertion.
type Encoder struct {
	g      *egraph.EGraph
	fns    *[numBuiltins]*egraph.Function
	codecs *Codecs
	lets   []*sexp.Node
	// vals holds a vector's elements while it is interned.
	vals []egraph.Value
	err  error
}

// apply emits f(args); name is f's name, which a rendering encoder writes.
func (e *Encoder) apply(name string, f *egraph.Function, args ...Term) Term {
	if e.g == nil {
		l := make([]*sexp.Node, len(args)+1)
		l[0] = sexp.Symbol(name)
		for i, a := range args {
			l[i+1] = a.n
		}
		return Term{n: sexp.List(l...)}
	}
	if e.err != nil {
		return Term{}
	}
	var buf [8]egraph.Value
	vals := buf[:0]
	for _, a := range args {
		vals = append(vals, a.v)
	}
	v, err := e.g.Insert(f, vals...)
	if err != nil {
		e.err = err
	}
	return Term{v: v}
}

// con emits the builtin constructor k applied to args.
func (e *Encoder) con(k builtin, args ...Term) Term {
	var f *egraph.Function
	if e.fns != nil {
		f = e.fns[k]
	}
	return e.apply(builtinNames[k], f, args...)
}

// custom emits a custom codec's head applied to args. An inserting
// encoder looks the head up among the graph's functions.
func (e *Encoder) custom(head string, args []Term) Term {
	var f *egraph.Function
	if e.g != nil && e.err == nil {
		var ok bool
		if f, ok = e.g.FunctionByName(head); !ok {
			e.err = fmt.Errorf("codec head %q is not a declared function", head)
		}
	}
	return e.apply(head, f, args...)
}

// vec emits the vector of elems that builtin k takes as its first
// argument.
func (e *Encoder) vec(k builtin, elems []Term) Term {
	if e.g == nil {
		l := make([]*sexp.Node, len(elems)+1)
		l[0] = sexp.Symbol("vec-of")
		for i, el := range elems {
			l[i+1] = el.n
		}
		return Term{n: sexp.List(l...)}
	}
	if e.err != nil {
		return Term{}
	}
	e.vals = e.vals[:0]
	for _, el := range elems {
		e.vals = append(e.vals, el.v)
	}
	return Term{v: e.g.InternVec(e.fns[k].Params[0], e.vals)}
}

// I64 emits an i64 literal.
func (e *Encoder) I64(x int64) Term {
	if e.g == nil {
		return Term{n: sexp.Int(x)}
	}
	return Term{v: egraph.I64Value(e.g.I64, x)}
}

// F64 emits an f64 literal.
func (e *Encoder) F64(x float64) Term {
	if e.g == nil {
		return Term{n: sexp.Float(x)}
	}
	return Term{v: egraph.F64Value(e.g.F64, x)}
}

// Str emits a String literal.
func (e *Encoder) Str(x string) Term {
	if e.g == nil {
		return Term{n: sexp.String(x)}
	}
	return Term{v: e.g.InternString(x)}
}

// let binds t as let number i: a rendering encoder appends (let opI t)
// and returns the name, an inserting encoder returns t.
func (e *Encoder) let(i int, t Term) Term {
	if e.g != nil {
		return t
	}
	name := sexp.Symbol("op" + strconv.Itoa(i))
	e.lets = append(e.lets, sexp.List(sexp.Symbol("let"), name, t.n))
	return Term{n: name}
}

// Type emits t through the first custom codec that matches it, or else
// through its built-in encoding (§4.1).
func (e *Encoder) Type(t mlir.Type) Term {
	if e.codecs != nil {
		for i := range e.codecs.Types {
			if c := &e.codecs.Types[i]; c.Matches(t) {
				return e.custom(c.Head, c.Eggify(e, t))
			}
		}
	}
	switch tt := t.(type) {
	case mlir.IntegerType:
		if k, ok := intTypes[tt.Width]; ok {
			return e.con(k)
		}
	case mlir.FloatType:
		if k, ok := floatTypes[tt.Width]; ok {
			return e.con(k)
		}
	case mlir.IndexType:
		return e.con(bIndex)
	case mlir.NoneType:
		return e.con(bNone)
	case mlir.RankedTensorType:
		var buf [4]Term
		dims := buf[:0]
		for _, d := range tt.Shape {
			dims = append(dims, e.I64(d))
		}
		return e.con(bRankedTensor, e.vec(bRankedTensor, dims), e.Type(tt.Elem))
	case mlir.UnrankedTensorType:
		return e.con(bUnrankedTensor, e.Type(tt.Elem))
	}
	// Types without a structural encoding become (OpaqueType text kind).
	return e.con(bOpaqueType, e.Str(t.String()), e.Str(typeName(t)))
}

// Attr emits a through the first custom codec that matches it, or else
// through its built-in encoding (§4.2).
func (e *Encoder) Attr(a mlir.Attribute) Term {
	if e.codecs != nil {
		for i := range e.codecs.Attrs {
			if c := &e.codecs.Attrs[i]; c.Matches(a) {
				return e.custom(c.Head, c.Eggify(e, a))
			}
		}
	}
	switch at := a.(type) {
	case mlir.IntegerAttr:
		return e.con(bIntegerAttr, e.I64(at.Value), e.Type(at.Type))
	case mlir.FloatAttr:
		return e.con(bFloatAttr, e.F64(at.Value), e.Type(at.Type))
	case mlir.StringAttr:
		return e.con(bStringAttr, e.Str(at.Value))
	case mlir.SymbolRefAttr:
		return e.con(bSymbolAttr, e.Str(at.Symbol))
	case mlir.UnitAttr:
		return e.con(bUnitAttr)
	case mlir.TypeAttr:
		return e.con(bTypeAttr, e.Type(at.Type))
	case mlir.FastMathAttr:
		flag := bFMNone
		if at.Flag >= 0 && int(at.Flag) < len(fastMathFlags) {
			flag = fastMathFlags[at.Flag]
		}
		return e.con(bFastMath, e.con(flag))
	case mlir.DenseAttr:
		return e.con(bDenseAttr, e.Attr(at.Splat), e.Type(at.Type))
	default:
		return e.con(bOpaqueAttr, e.Str(a.String()))
	}
}

// translator carries state across one function translation.
type translator struct {
	s    Encoder
	encs *Encodings
	out  *Translation
	// vals holds the term of every SSA value translated so far.
	vals map[*mlir.Value]Term
	// terms is a stack: each translated block leaves its operations'
	// terms on it until the enclosing node is built.
	terms []Term
	// args holds the arguments of the nodes in out.Nodes.
	args []egraph.Value
	// lets counts let bindings (Optimizer.EggProgram names them opN).
	lets int
}

// translateFunc translates the body of a func.func, inserting its e-nodes
// into g as it walks the operations. Types and attributes go through
// codecs' custom eggifiers first (§5.2; nil uses only the built-in
// encodings). Nodes are inserted in the order evaluating the function's
// (let opN term) program would insert them (DESIGN.md §15): a let's
// nested-region lets first, then its attribute terms, region vectors,
// result type and node, post-order, left to right.
func translateFunc(f *mlir.Operation, encs *Encodings, codecs *Codecs, g *egraph.EGraph) (*Translation, error) {
	t, err := newTranslator(f, encs, Encoder{g: g, fns: &encs.fns, codecs: codecs})
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
	t, err := newTranslator(f, encs, Encoder{codecs: codecs})
	if err != nil {
		return nil, err
	}
	return t.s.lets, nil
}

// newTranslator translates f's body into s. The function must have a
// single-block body (structured control flow nests in regions, which are
// handled recursively).
func newTranslator(f *mlir.Operation, encs *Encodings, s Encoder) (*translator, error) {
	if f.Name != "func.func" {
		return nil, fmt.Errorf("dialegg: expected func.func, got %s", f.Name)
	}
	entry := f.Regions[0].First()
	if entry == nil {
		return nil, fmt.Errorf("dialegg: function has no body")
	}
	t := &translator{
		s:     s,
		encs:  encs,
		out:   &Translation{Nodes: make(map[*mlir.Operation]Node, len(entry.Ops))},
		vals:  make(map[*mlir.Value]Term, len(entry.Args)+len(entry.Ops)),
		terms: make([]Term, 0, len(entry.Ops)+16),
	}
	if s.g != nil {
		// About four arguments per node.
		t.args = make([]egraph.Value, 0, 4*len(entry.Ops))
	}
	// Function arguments become Value terms (§5.4 line 3).
	for _, arg := range entry.Args {
		t.value(arg)
	}
	t.block(entry)
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
func (t *translator) node(op *mlir.Operation, f *egraph.Function, args []Term, out Term) {
	if t.s.g == nil {
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
func (t *translator) value(v *mlir.Value) Term {
	if tm, ok := t.vals[v]; ok {
		return tm
	}
	id := t.leaf(Leaf{Value: v})
	tm := t.s.let(t.fresh(), t.s.con(bValue, t.s.I64(id), t.s.Type(v.Typ)))
	t.vals[v] = tm
	return tm
}

// block translates every op of b, leaving their terms on t.terms in
// order.
func (t *translator) block(b *mlir.Block) {
	for _, op := range b.Ops {
		// t.op uses the stack above its base, so it runs before the
		// append reads t.terms.
		tm := t.op(op)
		t.terms = append(t.terms, tm)
	}
}

// op translates one operation, returning its term (the op's result value
// for single-result ops).
func (t *translator) op(op *mlir.Operation) Term {
	if enc, ok := t.encs.Lookup(op.Name, len(op.Operands)); ok {
		if tm, err := t.encoded(op, enc); err == nil {
			return tm
		}
		// An encoding mismatch (attribute/region/result layout) degrades
		// to the opaque path rather than failing the translation.
	}
	return t.opaque(op)
}

// attrsFor orders the op's attributes alphabetically into buf,
// synthesizing a default fastmath<none> when the encoding expects one more
// attribute than the op carries (§4.2; the paper's example emits fmnone
// for ops without an explicit fastmath flag).
func attrsFor(op *mlir.Operation, want int, buf []mlir.NamedAttribute) ([]mlir.NamedAttribute, error) {
	attrs := append(buf, op.Attrs...)
	if len(attrs) == want-1 {
		if _, has := mlir.GetAttr(op.Attrs, "fastmath"); !has {
			attrs = append(attrs, mlir.NamedAttribute{
				Name: "fastmath",
				Attr: mlir.FastMathAttr{Flag: mlir.FastMathNone},
			})
		}
	}
	if len(attrs) != want {
		return nil, fmt.Errorf("op has %d attributes, encoding wants %d", len(attrs), want)
	}
	slices.SortStableFunc(attrs, func(a, b mlir.NamedAttribute) int { return strings.Compare(a.Name, b.Name) })
	return attrs, nil
}

// encoded translates op with its structural encoding. Everything that can
// fail (the layout checks and the operands) runs before the op's regions
// are translated and its terms emitted, so a mismatch that falls back to
// the opaque encoding leaves none of them behind.
func (t *translator) encoded(op *mlir.Operation, enc *OpEncoding) (Term, error) {
	if len(op.Results) > 1 {
		return Term{}, fmt.Errorf("multi-result op")
	}
	if len(op.Regions) != enc.NumRegions {
		return Term{}, fmt.Errorf("op has %d regions, encoding wants %d", len(op.Regions), enc.NumRegions)
	}
	if enc.HasResultType && len(op.Results) != 1 {
		return Term{}, fmt.Errorf("encoding carries a result type but op has %d results", len(op.Results))
	}
	var abuf [4]mlir.NamedAttribute
	attrs, err := attrsFor(op, enc.NumAttrs, abuf[:0])
	if err != nil {
		return Term{}, err
	}

	// Operand terms, then each region's block terms, wait on the stack.
	base := len(t.terms)
	for _, operand := range op.Operands {
		tm, err := t.operand(operand)
		if err != nil {
			t.terms = t.terms[:base]
			return Term{}, err
		}
		t.terms = append(t.terms, tm)
	}
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			for _, arg := range b.Args {
				t.value(arg)
			}
			t.block(b)
		}
	}

	// The node's arguments: operands, attributes, regions, result type.
	s := &t.s
	argBase := len(t.terms)
	t.terms = append(t.terms, t.terms[base:base+len(op.Operands)]...)
	for _, a := range attrs {
		t.terms = append(t.terms, s.con(bNamedAttr, s.Str(a.Name), s.Attr(a.Attr)))
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
		t.terms = append(t.terms, s.Type(op.Results[0].Typ))
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
func (t *translator) operand(v *mlir.Value) (Term, error) {
	if tm, ok := t.vals[v]; ok {
		return tm, nil
	}
	// Block arguments are pre-registered; an unseen value here is a
	// forward reference, which SSA rules out.
	if v.IsBlockArg() {
		return t.value(v), nil
	}
	return Term{}, fmt.Errorf("dialegg: operand %s used before definition", v)
}

// opaque emits the (Value id type) stand-in for an operation with no
// (matching) encoding. Multi-result ops get one Value per result;
// zero-result ops get a None-typed Value that only serves to keep their
// block position.
func (t *translator) opaque(op *mlir.Operation) Term {
	t.out.NumOpaque++
	var typ mlir.Type = mlir.NoneType{}
	first := Leaf{Op: op}
	if len(op.Results) >= 1 {
		typ, first.Value = op.Results[0].Typ, op.Results[0]
	}
	id := t.leaf(first)
	i := t.fresh()
	s := &t.s
	args := [2]Term{s.I64(id), s.Type(typ)}
	tm := s.let(i, s.con(bValue, args[:]...))
	t.node(op, t.encs.fns[bValue], args[:], tm)
	if len(op.Results) >= 1 {
		t.vals[op.Results[0]] = tm
	}
	// Extra results each get their own Value binding keyed by fresh ids.
	for r := 1; r < len(op.Results); r++ {
		id2 := t.leaf(Leaf{Value: op.Results[r], Op: op})
		t.vals[op.Results[r]] = s.let(t.fresh(), s.con(bValue, s.I64(id2), s.Type(op.Results[r].Typ)))
	}
	return tm
}
