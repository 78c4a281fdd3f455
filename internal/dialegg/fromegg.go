package dialegg

import (
	"fmt"
	"slices"

	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
)

// rebuilder converts the extracted program back into MLIR SSA form (§5.3
// back-translation). It walks the nodes the extractor chose
// (egraph.Extractor.ChosenNode) from the function's root block class:
// each e-class becomes one SSA definition with multiple uses, opaque
// Values are resolved to their original operations, and nested Reg/Blk
// nodes rebuild regions.
type rebuilder struct {
	Decoder
	tr   *Translation
	encs *Encodings

	// memo is a scope stack mapping a canonical e-class to its rebuilt
	// value, giving SSA sharing with correct dominance.
	memo []map[egraph.Value]*mlir.Value
	// valueRemap maps original SSA values (function/block args, opaque
	// results) to their rebuilt counterparts.
	valueRemap map[*mlir.Value]*mlir.Value
	// reEmitted marks opaque original ops already copied into the new
	// function.
	reEmitted map[*mlir.Operation]bool
	// rebuiltEncoded marks ops created from encoded terms; only these are
	// candidates for the post-rebuild dead-code sweep.
	rebuiltEncoded map[*mlir.Operation]bool

	cur *mlir.Block
}

// rebuildFunc creates a fresh func.func from the program ex extracts for
// the root block class, reusing orig's name, signature, and argument
// names. Every class root reaches must have a chosen node (ex.DAGCost
// succeeded). Pure rewritten ops whose results end up unused are swept
// (block elements pin every original op in the e-graph; the sweep is the
// dataflow DCE that extraction from a bare dataflow root would have given
// — see DESIGN.md).
func rebuildFunc(orig *mlir.Operation, g *egraph.EGraph, ex *egraph.Extractor, root egraph.Value, tr *Translation, encs *Encodings, codecs *Codecs) (*mlir.Operation, error) {
	rb := &rebuilder{
		Decoder:        Decoder{g: g, ex: ex, codecs: codecs},
		tr:             tr,
		encs:           encs,
		valueRemap:     make(map[*mlir.Value]*mlir.Value),
		reEmitted:      make(map[*mlir.Operation]bool),
		rebuiltEncoded: make(map[*mlir.Operation]bool),
	}

	f := mlir.NewOperation("func.func", nil, nil)
	f.Attrs = append([]mlir.NamedAttribute(nil), orig.Attrs...)
	entry := f.AddRegion().AddBlock()
	origEntry := orig.Regions[0].First()
	for _, a := range origEntry.Args {
		na := entry.AddArg(a.Typ, a.Name)
		rb.valueRemap[a] = na
	}

	if err := rb.rebuildBlockInto(entry, root, origEntry); err != nil {
		return nil, err
	}
	rb.sweepDead(f)
	return f, nil
}

func (rb *rebuilder) pushScope() { rb.memo = append(rb.memo, make(map[egraph.Value]*mlir.Value)) }
func (rb *rebuilder) popScope()  { rb.memo = rb.memo[:len(rb.memo)-1] }

func (rb *rebuilder) memoGet(key egraph.Value) (*mlir.Value, bool) {
	for i := len(rb.memo) - 1; i >= 0; i-- {
		if v, ok := rb.memo[i][key]; ok {
			return v, true
		}
	}
	return nil, false
}

func (rb *rebuilder) memoPut(key egraph.Value, v *mlir.Value) {
	rb.memo[len(rb.memo)-1][key] = v
}

// elems returns the element classes of the vector that the chosen node of
// a Blk or Reg class wraps. A user rule source may declare other
// constructors of the Block and Region sorts, so the head is checked.
func (rb *rebuilder) elems(v egraph.Value, head, what string) ([]egraph.Value, error) {
	fn, args, _, _ := rb.ex.ChosenNode(v)
	if fn.Name != head {
		term, _, _ := rb.ex.Extract(v)
		return nil, fmt.Errorf("dialegg: malformed %s term %s", what, term)
	}
	return rb.g.VecElems(args[0]), nil
}

// rebuildBlockInto rebuilds the ops of a Blk class into b. origBlock, when
// known, is the original block this class derives from: vector elements
// are positionally stable through saturation (nothing rewrites Blk
// vectors), so element i is the optimized form of origBlock.Ops[i]; each
// original single result is remapped to the rebuilt value so that opaque
// operations referencing it pick up the optimized definition instead of
// re-emitting the original chain.
func (rb *rebuilder) rebuildBlockInto(b *mlir.Block, blk egraph.Value, origBlock *mlir.Block) error {
	elems, err := rb.elems(blk, "Blk", "block")
	if err != nil {
		return err
	}
	prev := rb.cur
	rb.cur = b
	rb.pushScope()
	defer func() {
		rb.popScope()
		rb.cur = prev
	}()
	zip := origBlock != nil && len(origBlock.Ops) == len(elems)
	for i, elem := range elems {
		var origOp *mlir.Operation
		if zip {
			origOp = origBlock.Ops[i]
		}
		v, err := rb.buildTerm(elem, origOp)
		if err != nil {
			return err
		}
		if zip && v != nil {
			orig := origBlock.Ops[i]
			if len(orig.Results) == 1 {
				if _, bound := rb.valueRemap[orig.Results[0]]; !bound {
					rb.valueRemap[orig.Results[0]] = v
				}
			}
		}
	}
	return nil
}

// buildTerm rebuilds the chosen node of the op class v, appending any
// needed operations to the current block, and returns the class's SSA
// value (nil for zero-result operations such as terminators). origOp, when
// non-nil, is the original operation this class is the optimized form of
// (known positionally: Blk vectors are stable through saturation); it
// anchors region rebinding when the node's leaves cannot identify the
// original block themselves.
func (rb *rebuilder) buildTerm(v egraph.Value, origOp *mlir.Operation) (*mlir.Value, error) {
	cls := rb.g.Find(v)
	if res, ok := rb.memoGet(cls); ok {
		return res, nil
	}
	fn, args, _, _ := rb.ex.ChosenNode(cls)
	head := fn.Name
	if head == "Value" {
		return rb.buildValue(args[0].AsI64())
	}
	enc, ok := rb.encs.LookupEgg(head)
	if !ok {
		return nil, fmt.Errorf("dialegg: extracted term has no encoding: %s", head)
	}

	// Operands first (dominance: their defining ops are appended before
	// this one).
	operands := make([]*mlir.Value, enc.NumOperands)
	for i := 0; i < enc.NumOperands; i++ {
		operand, err := rb.buildTerm(args[i], nil)
		if err != nil {
			return nil, err
		}
		if operand == nil {
			return nil, fmt.Errorf("dialegg: operand %d of %s has no value", i, head)
		}
		operands[i] = operand
	}

	// Attributes and the result type decode from their chosen nodes.
	var attrs []mlir.NamedAttribute
	if enc.NumAttrs > 0 {
		attrs = make([]mlir.NamedAttribute, enc.NumAttrs)
	}
	for i := range attrs {
		na, err := rb.namedAttr(args[enc.NumOperands+i])
		if err != nil {
			return nil, err
		}
		attrs[i] = na
	}

	var resultTypes []mlir.Type
	if enc.HasResultType {
		t, err := rb.Type(args[len(args)-1])
		if err != nil {
			return nil, err
		}
		resultTypes = []mlir.Type{t}
	}

	op := mlir.NewOperation(enc.MLIRName, operands, resultTypes)
	op.Attrs = attrs
	rb.cur.Append(op)
	rb.rebuiltEncoded[op] = true

	// Regions last: region scopes may reference values defined so far.
	// origOp anchors positional block matching only when the extracted
	// term is still the same operation shape as the original (a rewrite
	// that replaced the op wholesale carries no region correspondence).
	var origRegions []*mlir.Region
	if origOp != nil && origOp.Name == enc.MLIRName && len(origOp.Regions) == enc.NumRegions {
		origRegions = origOp.Regions
	}
	regionStart := enc.NumOperands + enc.NumAttrs
	for i := 0; i < enc.NumRegions; i++ {
		var origRegion *mlir.Region
		if origRegions != nil {
			origRegion = origRegions[i]
		}
		if err := rb.rebuildRegion(op, args[regionStart+i], origRegion); err != nil {
			return nil, err
		}
	}

	var result *mlir.Value
	if len(op.Results) == 1 {
		result = op.Results[0]
	}
	rb.memoPut(cls, result)
	return result, nil
}

// Decoder reads types and attributes back from the nodes extraction
// chose, and a custom codec's DeEggify reads its node's arguments with it
// (§5.2). Each type or attribute goes to the codec whose Head is its
// chosen node's function before the built-in encoding.
type Decoder struct {
	g      *egraph.EGraph
	ex     *egraph.Extractor
	codecs *Codecs
	// types memoizes Type by canonical class: most ops of a function
	// share a few result-type classes, so the ops decoded from one class
	// share its mlir.Type, a RankedTensorType's Shape slice included.
	// Nothing outside tests writes a Shape slice in place.
	types map[uint64]mlir.Type
}

// I64 reads an i64 argument.
func (d *Decoder) I64(v egraph.Value) int64 { return v.AsI64() }

// F64 reads an f64 argument.
func (d *Decoder) F64(v egraph.Value) float64 { return v.AsF64() }

// Str reads a String argument.
func (d *Decoder) Str(v egraph.Value) string { return d.g.StringOf(v) }

// chosen returns the function and arguments of the node extraction chose
// for v's class.
func (d *Decoder) chosen(v egraph.Value) (*egraph.Function, []egraph.Value, error) {
	fn, args, _, ok := d.ex.ChosenNode(v)
	if !ok {
		return nil, nil, fmt.Errorf("dialegg: %s value has no extracted node", d.g.SortOf(v))
	}
	return fn, args, nil
}

// errorf words an error about v's class with the term extraction chose
// for it; decoding renders nothing else.
func (d *Decoder) errorf(format string, v egraph.Value) error {
	term, _, _ := d.ex.Extract(v)
	return fmt.Errorf(format, term)
}

// Type decodes the Type class of v, once per class.
func (d *Decoder) Type(v egraph.Value) (mlir.Type, error) {
	cls := d.g.Find(v).Bits
	if t, ok := d.types[cls]; ok {
		return t, nil
	}
	t, err := d.decodeType(v)
	if err != nil {
		return nil, err
	}
	if d.types == nil {
		d.types = make(map[uint64]mlir.Type)
	}
	d.types[cls] = t
	return t, nil
}

// decodeType decodes the Type class of v from its chosen node.
func (d *Decoder) decodeType(v egraph.Value) (mlir.Type, error) {
	fn, args, err := d.chosen(v)
	if err != nil {
		return nil, err
	}
	if d.codecs != nil {
		for i := range d.codecs.Types {
			if c := &d.codecs.Types[i]; c.Head == fn.Name {
				return c.DeEggify(d, args)
			}
		}
	}
	switch fn.Name {
	case "I1":
		return mlir.I1, nil
	case "I8":
		return mlir.I8, nil
	case "I16":
		return mlir.I16, nil
	case "I32":
		return mlir.I32, nil
	case "I64":
		return mlir.I64, nil
	case "F16":
		return mlir.F16, nil
	case "F32":
		return mlir.F32, nil
	case "F64":
		return mlir.F64, nil
	case "Index":
		return mlir.Index, nil
	case "None":
		return mlir.NoneType{}, nil
	case "RankedTensor":
		var shape []int64
		if dims := d.g.VecElems(args[0]); len(dims) > 0 {
			shape = make([]int64, len(dims))
			for i, dim := range dims {
				shape[i] = dim.AsI64()
			}
		}
		elem, err := d.Type(args[1])
		if err != nil {
			return nil, err
		}
		return mlir.RankedTensorType{Shape: shape, Elem: elem}, nil
	case "UnrankedTensor":
		elem, err := d.Type(args[0])
		if err != nil {
			return nil, err
		}
		return mlir.UnrankedTensorType{Elem: elem}, nil
	case "OpaqueType":
		// The text is the type's MLIR syntax; parsing it gives the type
		// the parser gave the original (i4 and complex<f32> are modelled).
		text := d.Str(args[0])
		t, err := mlir.ParseType(text)
		if err != nil {
			return nil, fmt.Errorf("dialegg: OpaqueType %q: %w", text, err)
		}
		return t, nil
	}
	return nil, d.errorf("dialegg: unknown type term %s", v)
}

// Attr decodes the Attr class of v.
func (d *Decoder) Attr(v egraph.Value) (mlir.Attribute, error) {
	fn, args, err := d.chosen(v)
	if err != nil {
		return nil, err
	}
	if d.codecs != nil {
		for i := range d.codecs.Attrs {
			if c := &d.codecs.Attrs[i]; c.Head == fn.Name {
				return c.DeEggify(d, args)
			}
		}
	}
	switch fn.Name {
	case "IntegerAttr":
		t, err := d.Type(args[1])
		if err != nil {
			return nil, err
		}
		return mlir.IntegerAttr{Value: d.I64(args[0]), Type: t}, nil
	case "FloatAttr":
		t, err := d.Type(args[1])
		if err != nil {
			return nil, err
		}
		return mlir.FloatAttr{Value: d.F64(args[0]), Type: t}, nil
	case "StringAttr":
		return mlir.StringAttr{Value: d.Str(args[0])}, nil
	case "SymbolAttr":
		return mlir.SymbolRefAttr{Symbol: d.Str(args[0])}, nil
	case "UnitAttr":
		return mlir.UnitAttr{}, nil
	case "TypeAttr":
		t, err := d.Type(args[0])
		if err != nil {
			return nil, err
		}
		return mlir.TypeAttr{Type: t}, nil
	case "arith_fastmath":
		flagFn, _, err := d.chosen(args[0])
		if err != nil {
			return nil, err
		}
		for flag, k := range fastMathFlags {
			if builtinNames[k] == flagFn.Name {
				return mlir.FastMathAttr{Flag: mlir.FastMathFlag(flag)}, nil
			}
		}
		return nil, d.errorf("dialegg: unknown fastmath flag %s", v)
	case "DenseAttr":
		splat, err := d.Attr(args[0])
		if err != nil {
			return nil, err
		}
		t, err := d.Type(args[1])
		if err != nil {
			return nil, err
		}
		return mlir.DenseAttr{Splat: splat, Type: t}, nil
	case "OpaqueAttr":
		return mlir.OpaqueAttr{Text: d.Str(args[0])}, nil
	}
	return nil, d.errorf("dialegg: unknown attribute term %s", v)
}

// namedAttr decodes the AttrPair class of v, a (NamedAttr "name" attr).
func (d *Decoder) namedAttr(v egraph.Value) (mlir.NamedAttribute, error) {
	fn, args, err := d.chosen(v)
	if err != nil {
		return mlir.NamedAttribute{}, err
	}
	if fn.Name != "NamedAttr" {
		return mlir.NamedAttribute{}, d.errorf("dialegg: malformed NamedAttr %s", v)
	}
	a, err := d.Attr(args[1])
	if err != nil {
		return mlir.NamedAttribute{}, err
	}
	return mlir.NamedAttribute{Name: d.Str(args[0]), Attr: a}, nil
}

// buildValue resolves the leaf (Value id type): a function or block
// argument, or a result of an opaque operation, which is copied into the
// rebuilt function on first use (see rebuildOriginalValue).
func (rb *rebuilder) buildValue(id int64) (*mlir.Value, error) {
	leaf, ok := rb.tr.leaf(id)
	if !ok {
		return nil, fmt.Errorf("dialegg: Value id %d was never assigned by translation", id)
	}
	if leaf.Op != nil {
		if err := rb.reEmitOpaqueDef(leaf.Op); err != nil {
			return nil, err
		}
		if leaf.Value == nil {
			return nil, nil
		}
	}
	orig := leaf.Value
	if v, ok := rb.valueRemap[orig]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("dialegg: Value id %d (%s) has no rebuilt binding; a rewrite moved a block argument out of its region", id, orig)
}

// rebuildOriginalValue maps an original SSA value into the rebuilt
// function, re-emitting its original defining op when necessary.
func (rb *rebuilder) rebuildOriginalValue(o *mlir.Value) (*mlir.Value, error) {
	if v, ok := rb.valueRemap[o]; ok {
		return v, nil
	}
	if o.IsBlockArg() {
		return nil, fmt.Errorf("dialegg: block argument %s not in scope during rebuild", o)
	}
	if o.Def == nil {
		return nil, fmt.Errorf("dialegg: value %s has no definition", o)
	}
	// Re-emit the original defining op (unoptimized): opaque operands are
	// invisible to the e-graph, so their producers may be absent from the
	// extracted dataflow.
	if err := rb.reEmitOpaqueDef(o.Def); err != nil {
		return nil, err
	}
	return rb.valueRemap[o], nil
}

// reEmitOpaqueDef copies an untranslated original operation into the
// current block once, resolving its operands against the rebuilt values
// (and re-emitting their original defining ops when the optimized
// dataflow no longer provides them — opaque operands are invisible to the
// e-graph).
func (rb *rebuilder) reEmitOpaqueDef(op *mlir.Operation) error {
	if rb.reEmitted[op] {
		return nil
	}
	if err := rb.reEmitOpaqueInner(op, rb.cur); err != nil {
		return err
	}
	rb.reEmitted[op] = true
	return nil
}

// reEmitOpaqueInner appends a copy of op to into and remaps its results
// and block arguments to the copy's. Regions are copied wholesale: the
// interiors of opaque ops were never in the e-graph.
func (rb *rebuilder) reEmitOpaqueInner(op *mlir.Operation, into *mlir.Block) error {
	operands := make([]*mlir.Value, len(op.Operands))
	for i, o := range op.Operands {
		v, err := rb.rebuildOriginalValue(o)
		if err != nil {
			return err
		}
		operands[i] = v
	}
	types := make([]mlir.Type, len(op.Results))
	for i, r := range op.Results {
		types[i] = r.Typ
	}
	copyOp := mlir.NewOperation(op.Name, operands, types)
	copyOp.Attrs = append([]mlir.NamedAttribute(nil), op.Attrs...)
	for _, reg := range op.Regions {
		cr := copyOp.AddRegion()
		for _, blk := range reg.Blocks {
			cb := cr.AddBlock()
			for _, a := range blk.Args {
				na := cb.AddArg(a.Typ, a.Name)
				rb.valueRemap[a] = na
			}
			for _, inner := range blk.Ops {
				if err := rb.reEmitOpaqueInner(inner, cb); err != nil {
					return err
				}
			}
		}
	}
	into.Append(copyOp)
	for i, r := range op.Results {
		rb.valueRemap[r] = copyOp.Results[i]
	}
	return nil
}

// rebuildRegion rebuilds a Reg class into a new region of op, creating
// entry-block arguments from the original block whose arguments the region
// body references. origRegion, when non-nil, is the original region this
// class derives from (known positionally from the original op); its blocks
// anchor the rebinding even when the body never references its own
// arguments directly — e.g. an scf.for whose iter_arg is only used inside
// a nested scf.if region.
func (rb *rebuilder) rebuildRegion(op *mlir.Operation, reg egraph.Value, origRegion *mlir.Region) error {
	blocks, err := rb.elems(reg, "Reg", "region")
	if err != nil {
		return err
	}
	region := op.AddRegion()
	for bi, blk := range blocks {
		block := region.AddBlock()
		// Identify the original block: positionally through the original
		// region when known (the strongest evidence), otherwise by scanning
		// the body for leaves the block owns.
		var origBlock *mlir.Block
		if origRegion != nil && bi < len(origRegion.Blocks) && !rb.blockClaimed(origRegion.Blocks[bi]) {
			origBlock = origRegion.Blocks[bi]
		}
		if origBlock == nil {
			origBlock = rb.findOriginalBlock(blk, op.Name)
		}
		if origBlock != nil {
			for _, a := range origBlock.Args {
				na := block.AddArg(a.Typ, a.Name)
				rb.valueRemap[a] = na
			}
		} else if op.Name == "scf.for" {
			// Convention fallback: induction variable plus one argument
			// per iter operand.
			block.AddArg(mlir.Index, "")
			for i := 3; i < len(op.Operands); i++ {
				block.AddArg(op.Operands[i].Typ, "")
			}
		}
		if err := rb.rebuildBlockInto(block, blk, origBlock); err != nil {
			return err
		}
	}
	return nil
}

// findOriginalBlock locates the original block the Blk class blk derives
// from, so its arguments can be rebound to the rebuilt block's arguments.
// It scans the chosen nodes blk reaches for Value leaves — block arguments
// and opaque operation results — whose original location is known, then
// walks up as many original region levels as there are Reg nodes between
// the leaf and blk. A leaf the block *owns* lands exactly on the block at
// blk's level, but a leaf capturing a value from an enclosing region walks
// up to a strictly shallower block — and when the enclosing op has the
// same name (a nested scf.for capturing the outer iter_arg), the name
// guard alone cannot tell them apart. Enclosing blocks were already
// claimed by the time a nested region is rebuilt (regions rebuild
// outside-in, and each original block derives at most one rebuilt block),
// so candidates whose arguments are already rebound are rejected and the
// scan continues to a leaf the block really owns.
//
// The scan is depth-first in argument order and visits each (class, Reg
// depth) pair once: nothing it reads changes while it runs, so a second
// visit could only repeat a miss. It takes time linear in the classes blk
// reaches, however much the extracted program shares.
func (rb *rebuilder) findOriginalBlock(blk egraph.Value, opName string) *mlir.Block {
	type visit struct {
		cls   egraph.Value
		depth int
	}
	seen := make(map[visit]bool)
	var found *mlir.Block
	var scan func(v egraph.Value, depth int)
	scan = func(v egraph.Value, depth int) {
		if found != nil {
			return
		}
		if v.Kind() == egraph.KindVec {
			for _, el := range rb.g.VecElems(v) {
				scan(el, depth)
			}
			return
		}
		if v.Kind() != egraph.KindEq {
			return
		}
		cls := rb.g.Find(v)
		if seen[visit{cls, depth}] {
			return
		}
		seen[visit{cls, depth}] = true
		fn, args, _, _ := rb.ex.ChosenNode(cls)
		if fn.Name == "Value" {
			var leafBlock *mlir.Block
			if leaf, ok := rb.tr.leaf(args[0].AsI64()); ok && leaf.Op != nil {
				leafBlock = leaf.Op.ParentBlock
			} else if ok && leaf.Value.IsBlockArg() {
				leafBlock = leaf.Value.OwnerBlock
			}
			if leafBlock == nil {
				return
			}
			if c := walkUpBlocks(leafBlock, depth); c != nil &&
				c.ParentRegion != nil && c.ParentRegion.ParentOp != nil &&
				c.ParentRegion.ParentOp.Name == opName &&
				!rb.blockClaimed(c) {
				found = c
			}
			return
		}
		if fn.Name == "Reg" {
			depth++
		}
		for _, a := range args {
			scan(a, depth)
		}
	}
	scan(blk, 0)
	return found
}

// blockClaimed reports whether b's arguments are already rebound — i.e.
// b was already identified as the original of some other rebuilt block
// (an enclosing one; regions rebuild outside-in). A claimed block cannot
// be the original of the term being rebuilt, so a leaf that walks up to
// one is a captured use of an enclosing region's value, not evidence of
// the block's identity.
func (rb *rebuilder) blockClaimed(b *mlir.Block) bool {
	if len(b.Args) == 0 {
		return false
	}
	_, claimed := rb.valueRemap[b.Args[0]]
	return claimed
}

// walkUpBlocks ascends n region levels from b, returning nil when the
// chain runs out.
func walkUpBlocks(b *mlir.Block, n int) *mlir.Block {
	for ; n > 0 && b != nil; n-- {
		if b.ParentRegion == nil || b.ParentRegion.ParentOp == nil {
			return nil
		}
		b = b.ParentRegion.ParentOp.ParentBlock
	}
	return b
}

// sweepDead removes rebuilt encoded ops whose results are all unused,
// then the ops that only removed ops used, and so on. Uses are counted
// once and each removal releases its operands, so the sweep is linear in
// the function however long a dead chain is. Re-emitted opaque ops are
// kept (unknown effects); zero-result ops (terminators, plain loops) are
// kept.
func (rb *rebuilder) sweepDead(f *mlir.Operation) {
	uses := make(map[*mlir.Value]int)
	f.Walk(func(op *mlir.Operation) bool {
		for _, o := range op.Operands {
			uses[o]++
		}
		return true
	})
	dead := make(map[*mlir.Operation]bool)
	// Region-carrying ops are never swept even when their results are
	// unused: their bodies may hold re-emitted opaque operations whose
	// effects must survive (§4.3).
	removable := func(op *mlir.Operation) bool {
		if dead[op] || !rb.rebuiltEncoded[op] || len(op.Results) == 0 || len(op.Regions) > 0 {
			return false
		}
		for _, r := range op.Results {
			if uses[r] > 0 {
				return false
			}
		}
		return true
	}
	var work []*mlir.Operation
	f.Walk(func(op *mlir.Operation) bool {
		if removable(op) {
			dead[op] = true
			work = append(work, op)
		}
		return true
	})
	for len(work) > 0 {
		op := work[len(work)-1]
		work = work[:len(work)-1]
		for _, o := range op.Operands {
			uses[o]--
			if o.Def != nil && removable(o.Def) {
				dead[o.Def] = true
				work = append(work, o.Def)
			}
		}
	}
	// Walk visits an op before its regions, so each block is filtered
	// before its ops are visited.
	f.Walk(func(op *mlir.Operation) bool {
		for _, r := range op.Regions {
			for _, b := range r.Blocks {
				b.Ops = slices.DeleteFunc(b.Ops, func(op *mlir.Operation) bool { return dead[op] })
			}
		}
		return true
	})
}
