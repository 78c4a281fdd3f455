package dialegg

import (
	"fmt"

	"dialegg/internal/mlir"
	"dialegg/internal/sexp"
)

// rebuilder converts the extracted egglog term back into MLIR SSA form
// (§5.3 back-translation): structurally identical subterms become one SSA
// definition with multiple uses, opaque Values are resolved to their
// original operations, and nested Reg/Blk terms rebuild regions.
type rebuilder struct {
	tr     *Translation
	encs   *Encodings
	codecs *Codecs

	// memo is a scope stack mapping an extracted subterm to its rebuilt
	// value, giving SSA sharing with correct dominance. The extractor
	// renders each e-class as one node, so keying by pointer gives each
	// distinct subterm one definition.
	memo []map[*sexp.Node]*mlir.Value
	// valueRemap maps original SSA values (function/block args, opaque
	// results) to their rebuilt counterparts.
	valueRemap map[*mlir.Value]*mlir.Value
	// reEmitted memoizes opaque original ops already copied into the new
	// function.
	reEmitted map[*mlir.Operation]*mlir.Operation
	// rebuiltEncoded marks ops created from encoded terms; only these are
	// candidates for the post-rebuild dead-code sweep.
	rebuiltEncoded map[*mlir.Operation]bool

	cur *mlir.Block
}

// rebuildFunc creates a fresh func.func from the extracted root block
// term, reusing orig's name, signature, and argument names. Pure rewritten
// ops whose results end up unused are swept (block elements pin every
// original op in the e-graph; the sweep is the dataflow DCE that
// extraction from a bare dataflow root would have given — see DESIGN.md).
func rebuildFunc(orig *mlir.Operation, rootTerm *sexp.Node, tr *Translation, encs *Encodings, codecs *Codecs) (*mlir.Operation, error) {
	if rootTerm.Head() != "Blk" {
		return nil, fmt.Errorf("dialegg: extracted root is not a block term: %s", rootTerm.Head())
	}
	rb := &rebuilder{
		tr:             tr,
		encs:           encs,
		codecs:         codecs,
		valueRemap:     make(map[*mlir.Value]*mlir.Value),
		reEmitted:      make(map[*mlir.Operation]*mlir.Operation),
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

	if err := rb.rebuildBlockInto(entry, rootTerm, origEntry); err != nil {
		return nil, err
	}
	rb.sweepDead(f)
	return f, nil
}

func (rb *rebuilder) pushScope() { rb.memo = append(rb.memo, make(map[*sexp.Node]*mlir.Value)) }
func (rb *rebuilder) popScope()  { rb.memo = rb.memo[:len(rb.memo)-1] }

func (rb *rebuilder) memoGet(key *sexp.Node) (*mlir.Value, bool) {
	for i := len(rb.memo) - 1; i >= 0; i-- {
		if v, ok := rb.memo[i][key]; ok {
			return v, true
		}
	}
	return nil, false
}

func (rb *rebuilder) memoPut(key *sexp.Node, v *mlir.Value) {
	rb.memo[len(rb.memo)-1][key] = v
}

// rebuildBlockInto rebuilds the ops of a (Blk (vec-of ...)) term into b.
// origBlock, when known, is the original block this term derives from:
// vector elements are positionally stable through saturation (nothing
// rewrites Blk vectors), so element i is the optimized form of
// origBlock.Ops[i]; each original single result is remapped to the rebuilt
// value so that opaque operations referencing it pick up the optimized
// definition instead of re-emitting the original chain.
func (rb *rebuilder) rebuildBlockInto(b *mlir.Block, blkTerm *sexp.Node, origBlock *mlir.Block) error {
	if blkTerm.Head() != "Blk" || len(blkTerm.Args()) != 1 || blkTerm.Args()[0].Head() != "vec-of" {
		return fmt.Errorf("dialegg: malformed block term %s", blkTerm)
	}
	prev := rb.cur
	rb.cur = b
	rb.pushScope()
	defer func() {
		rb.popScope()
		rb.cur = prev
	}()
	elems := blkTerm.Args()[0].Args()
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

// buildTerm rebuilds one term, appending any needed operations to the
// current block, and returns the term's SSA value (nil for zero-result
// operations such as terminators). origOp, when non-nil, is the original
// operation this term is the optimized form of (known positionally: Blk
// vectors are stable through saturation); it anchors region rebinding
// when the term's leaves cannot identify the original block themselves.
func (rb *rebuilder) buildTerm(term *sexp.Node, origOp *mlir.Operation) (*mlir.Value, error) {
	if v, ok := rb.memoGet(term); ok {
		return v, nil
	}
	head := term.Head()
	if head == "Value" {
		return rb.buildValue(term)
	}
	enc, ok := rb.encs.LookupEgg(head)
	if !ok {
		return nil, fmt.Errorf("dialegg: extracted term has no encoding: %s", head)
	}
	args := term.Args()
	want := enc.NumOperands + enc.NumAttrs + enc.NumRegions
	if enc.HasResultType {
		want++
	}
	if len(args) != want {
		return nil, fmt.Errorf("dialegg: term %s has %d args, encoding wants %d", head, len(args), want)
	}

	// Operands first (dominance: their defining ops are appended before
	// this one).
	operands := make([]*mlir.Value, enc.NumOperands)
	for i := 0; i < enc.NumOperands; i++ {
		v, err := rb.buildTerm(args[i], nil)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, fmt.Errorf("dialegg: operand %d of %s has no value", i, head)
		}
		operands[i] = v
	}

	var attrs []mlir.NamedAttribute
	for i := 0; i < enc.NumAttrs; i++ {
		na, err := rb.codecs.TermToNamedAttr(args[enc.NumOperands+i])
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, na)
	}

	var resultTypes []mlir.Type
	if enc.HasResultType {
		t, err := rb.codecs.TermToType(args[len(args)-1])
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
	rb.memoPut(term, result)
	return result, nil
}

// buildValue resolves a (Value id type) leaf: a function/block argument or
// an opaque operation result.
func (rb *rebuilder) buildValue(term *sexp.Node) (*mlir.Value, error) {
	if len(term.Args()) != 2 || term.Args()[0].Kind != sexp.KindInt {
		return nil, fmt.Errorf("dialegg: malformed Value term %s", term)
	}
	id := term.Args()[0].Int
	if op, ok := rb.tr.OpaqueOps[id]; ok {
		return rb.reEmitOpaque(op, id)
	}
	orig, ok := rb.tr.ValueIDs[id]
	if !ok {
		return nil, fmt.Errorf("dialegg: Value id %d was never assigned by translation", id)
	}
	if v, ok := rb.valueRemap[orig]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("dialegg: Value id %d (%s) has no rebuilt binding; a rewrite moved a block argument out of its region", id, orig)
}

// reEmitOpaque copies an untranslated original operation into the rebuilt
// function, resolving its operands against the rebuilt values (and
// re-emitting their original defining ops when the optimized dataflow no
// longer provides them — opaque operands are invisible to the e-graph).
func (rb *rebuilder) reEmitOpaque(op *mlir.Operation, id int64) (*mlir.Value, error) {
	if copyOp, done := rb.reEmitted[op]; done {
		return rb.resultForID(copyOp, op, id)
	}
	operands := make([]*mlir.Value, len(op.Operands))
	for i, o := range op.Operands {
		v, err := rb.rebuildOriginalValue(o)
		if err != nil {
			return nil, err
		}
		operands[i] = v
	}
	types := make([]mlir.Type, len(op.Results))
	for i, r := range op.Results {
		types[i] = r.Typ
	}
	copyOp := mlir.NewOperation(op.Name, operands, types)
	copyOp.Attrs = append([]mlir.NamedAttribute(nil), op.Attrs...)
	// Opaque ops with regions are copied wholesale; their interiors were
	// never in the e-graph.
	for _, reg := range op.Regions {
		cr := copyOp.AddRegion()
		for _, blk := range reg.Blocks {
			cb := cr.AddBlock()
			for _, a := range blk.Args {
				na := cb.AddArg(a.Typ, a.Name)
				rb.valueRemap[a] = na
			}
			for _, inner := range blk.Ops {
				iv, err := rb.reEmitOpaqueInner(inner, cb)
				if err != nil {
					return nil, err
				}
				_ = iv
			}
		}
	}
	rb.cur.Append(copyOp)
	rb.reEmitted[op] = copyOp
	for i, r := range op.Results {
		rb.valueRemap[r] = copyOp.Results[i]
	}
	return rb.resultForID(copyOp, op, id)
}

func (rb *rebuilder) reEmitOpaqueInner(op *mlir.Operation, into *mlir.Block) (*mlir.Operation, error) {
	operands := make([]*mlir.Value, len(op.Operands))
	for i, o := range op.Operands {
		v, err := rb.rebuildOriginalValue(o)
		if err != nil {
			return nil, err
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
				if _, err := rb.reEmitOpaqueInner(inner, cb); err != nil {
					return nil, err
				}
			}
		}
	}
	into.Append(copyOp)
	for i, r := range op.Results {
		rb.valueRemap[r] = copyOp.Results[i]
	}
	return copyOp, nil
}

// resultForID picks the copied result corresponding to the Value id.
func (rb *rebuilder) resultForID(copyOp, op *mlir.Operation, id int64) (*mlir.Value, error) {
	if len(op.Results) == 0 {
		return nil, nil
	}
	orig, ok := rb.tr.ValueIDs[id]
	if !ok {
		return copyOp.Results[0], nil
	}
	for i, r := range op.Results {
		if r == orig {
			return copyOp.Results[i], nil
		}
	}
	return copyOp.Results[0], nil
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
	copyOp, err := rb.reEmitOpaqueDef(o.Def)
	if err != nil {
		return nil, err
	}
	for i, r := range o.Def.Results {
		if r == o {
			return copyOp.Results[i], nil
		}
	}
	return nil, fmt.Errorf("dialegg: lost track of %s during re-emission", o)
}

func (rb *rebuilder) reEmitOpaqueDef(op *mlir.Operation) (*mlir.Operation, error) {
	if copyOp, done := rb.reEmitted[op]; done {
		return copyOp, nil
	}
	copyOp, err := rb.reEmitOpaqueInner(op, rb.cur)
	if err != nil {
		return nil, err
	}
	rb.reEmitted[op] = copyOp
	for i, r := range op.Results {
		rb.valueRemap[r] = copyOp.Results[i]
	}
	return copyOp, nil
}

// rebuildRegion rebuilds a (Reg (vec-of (Blk ...)...)) term into a new
// region of op, creating entry-block arguments from the original block
// whose arguments the region body references. origRegion, when non-nil,
// is the original region this term derives from (known positionally from
// the original op); its blocks anchor the rebinding even when the body
// never references its own arguments directly — e.g. an scf.for whose
// iter_arg is only used inside a nested scf.if region.
func (rb *rebuilder) rebuildRegion(op *mlir.Operation, regTerm *sexp.Node, origRegion *mlir.Region) error {
	if regTerm.Head() != "Reg" || len(regTerm.Args()) != 1 || regTerm.Args()[0].Head() != "vec-of" {
		return fmt.Errorf("dialegg: malformed region term %s", regTerm)
	}
	region := op.AddRegion()
	for bi, blkTerm := range regTerm.Args()[0].Args() {
		block := region.AddBlock()
		// Identify the original block: positionally through the original
		// region when known (the strongest evidence), otherwise by scanning
		// the body for leaves the block owns.
		var origBlock *mlir.Block
		if origRegion != nil && bi < len(origRegion.Blocks) && !rb.blockClaimed(origRegion.Blocks[bi]) {
			origBlock = origRegion.Blocks[bi]
		}
		if origBlock == nil {
			origBlock = rb.findOriginalBlock(blkTerm, op.Name)
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
		if err := rb.rebuildBlockInto(block, blkTerm, origBlock); err != nil {
			return err
		}
	}
	return nil
}

// findOriginalBlock locates the original block this (Blk ...) term derives
// from, so its arguments can be rebound to the rebuilt block's arguments.
// It scans the term for Value leaves — block arguments and opaque
// operation results — whose original location is known, then walks up as
// many original region levels as there are Reg boundaries between the leaf
// and this block term. A leaf the block *owns* lands exactly on the block
// at this term's level, but a leaf capturing a value from an enclosing
// region walks up to a strictly shallower block — and when the enclosing
// op has the same name (a nested scf.for capturing the outer iter_arg),
// the name guard alone cannot tell them apart. Enclosing blocks were
// already claimed by the time a nested region is rebuilt (regions rebuild
// outside-in, and each original block derives at most one rebuilt block),
// so candidates whose arguments are already rebound are rejected and the
// scan continues to a leaf the block really owns.
func (rb *rebuilder) findOriginalBlock(blkTerm *sexp.Node, opName string) *mlir.Block {
	var found *mlir.Block
	var scan func(n *sexp.Node, depth int)
	scan = func(n *sexp.Node, depth int) {
		if found != nil || n.Kind != sexp.KindList {
			return
		}
		if n.Head() == "Value" && len(n.Args()) == 2 && n.Args()[0].Kind == sexp.KindInt {
			id := n.Args()[0].Int
			var leafBlock *mlir.Block
			if op, ok := rb.tr.OpaqueOps[id]; ok {
				leafBlock = op.ParentBlock
			} else if orig, ok := rb.tr.ValueIDs[id]; ok && orig.IsBlockArg() {
				leafBlock = orig.OwnerBlock
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
		childDepth := depth
		if n.Head() == "Reg" {
			childDepth++
		}
		for _, c := range n.List {
			scan(c, childDepth)
		}
	}
	scan(blkTerm, 0)
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

// sweepDead removes rebuilt encoded ops whose results are all unused.
// Re-emitted opaque ops are kept (unknown effects); zero-result ops
// (terminators, plain loops) are kept.
func (rb *rebuilder) sweepDead(f *mlir.Operation) {
	for {
		used := make(map[*mlir.Value]bool)
		f.Walk(func(op *mlir.Operation) bool {
			for _, o := range op.Operands {
				used[o] = true
			}
			return true
		})
		removed := false
		var sweep func(b *mlir.Block)
		sweep = func(b *mlir.Block) {
			kept := b.Ops[:0]
			for _, op := range b.Ops {
				for _, r := range op.Regions {
					for _, inner := range r.Blocks {
						sweep(inner)
					}
				}
				// Region-carrying ops are never swept even when their
				// results are unused: their bodies may hold re-emitted
				// opaque operations whose effects must survive (§4.3).
				if rb.rebuiltEncoded[op] && len(op.Results) > 0 && len(op.Regions) == 0 {
					live := false
					for _, res := range op.Results {
						if used[res] {
							live = true
							break
						}
					}
					if !live {
						op.ParentBlock = nil
						removed = true
						continue
					}
				}
				kept = append(kept, op)
			}
			b.Ops = kept
		}
		for _, r := range f.Regions {
			for _, b := range r.Blocks {
				sweep(b)
			}
		}
		if !removed {
			return
		}
	}
}
