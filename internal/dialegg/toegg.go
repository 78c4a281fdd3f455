package dialegg

import (
	"fmt"
	"sort"

	"dialegg/internal/mlir"
	"dialegg/internal/sexp"
)

// Translation is the result of translating one function body to Egglog:
// a straight-line sequence of let bindings (§5.3, SSA values become
// let-bindings) plus the bookkeeping needed to translate back.
type Translation struct {
	// Lets are the (let opN term) commands in definition order.
	Lets []*sexp.Node
	// RootName is the let binding holding the function body's block term;
	// extraction starts there.
	RootName string
	// ValueIDs maps the i64 identifier inside (Value id type) terms back
	// to the original SSA value (block argument or opaque result).
	ValueIDs map[int64]*mlir.Value
	// OpaqueOps maps a Value id to the original operation whose result it
	// stands for, so back-translation can re-emit it.
	OpaqueOps map[int64]*mlir.Operation
	// NumTranslated counts MLIR ops that received a structural encoding.
	NumTranslated int
	// NumOpaque counts MLIR ops that became opaque Values.
	NumOpaque int
	// OpLets maps each translated operation to its let-binding name, so
	// callers can recover the op's e-node after the lets execute (used by
	// rewrite explanations).
	OpLets map[*mlir.Operation]string
}

// translator carries state across one function translation.
type translator struct {
	encs    *Encodings
	codecs  *Codecs
	out     *Translation
	letName map[*mlir.Value]string
	// opName maps zero-result translated ops to their let names (they have
	// no SSA value to key on).
	opLet   map[*mlir.Operation]string
	counter int
	nextID  int64
}

// TranslateFuncWithCodecs translates the body of a func.func into egglog
// let bindings, encoding types and attributes with codecs' custom
// eggifiers (§5.2; nil uses only the built-in encodings). The function
// must have a single-block body (structured control flow nests in regions,
// which are handled recursively).
func TranslateFuncWithCodecs(f *mlir.Operation, encs *Encodings, codecs *Codecs) (*Translation, error) {
	if f.Name != "func.func" {
		return nil, fmt.Errorf("dialegg: expected func.func, got %s", f.Name)
	}
	entry := f.Regions[0].First()
	if entry == nil {
		return nil, fmt.Errorf("dialegg: function has no body")
	}
	tr := &translator{
		encs:   encs,
		codecs: codecs,
		out: &Translation{
			ValueIDs:  make(map[int64]*mlir.Value),
			OpaqueOps: make(map[int64]*mlir.Operation),
		},
		letName: make(map[*mlir.Value]string),
		opLet:   make(map[*mlir.Operation]string),
	}
	tr.out.OpLets = tr.opLet
	// Function arguments become Value terms (§5.4 line 3).
	for _, arg := range entry.Args {
		if _, err := tr.emitValue(arg); err != nil {
			return nil, err
		}
	}
	blkTerm, err := tr.translateBlock(entry)
	if err != nil {
		return nil, err
	}
	root := tr.fresh()
	tr.emitLet(root, blkTerm)
	tr.out.RootName = root
	return tr.out, nil
}

func (t *translator) fresh() string {
	name := fmt.Sprintf("op%d", t.counter)
	t.counter++
	return name
}

func (t *translator) emitLet(name string, term *sexp.Node) {
	t.out.Lets = append(t.out.Lets, sexp.List(sexp.Symbol("let"), sexp.Symbol(name), term))
}

// emitValue creates the (Value id type) binding for a block argument or
// opaque result and returns its let name.
func (t *translator) emitValue(v *mlir.Value) (string, error) {
	if name, ok := t.letName[v]; ok {
		return name, nil
	}
	id := t.nextID
	t.nextID++
	t.out.ValueIDs[id] = v
	name := t.fresh()
	tt, err := t.codecs.TypeToTerm(v.Typ)
	if err != nil {
		return "", err
	}
	term := sexp.List(sexp.Symbol("Value"), sexp.Int(id), tt)
	t.emitLet(name, term)
	t.letName[v] = name
	return name, nil
}

// translateBlock translates every op of b (emitting lets) and returns the
// (Blk (vec-of ...)) term listing them in order.
func (t *translator) translateBlock(b *mlir.Block) (*sexp.Node, error) {
	vec := sexp.List(sexp.Symbol("vec-of"))
	for _, op := range b.Ops {
		name, err := t.translateOp(op)
		if err != nil {
			return nil, err
		}
		vec.List = append(vec.List, sexp.Symbol(name))
	}
	return sexp.List(sexp.Symbol("Blk"), vec), nil
}

// translateOp translates one operation, returning the let name bound to
// its term (the op's result value for single-result ops).
func (t *translator) translateOp(op *mlir.Operation) (string, error) {
	if name, ok := t.opLet[op]; ok {
		return name, nil
	}
	enc, encodable := t.encs.Lookup(op.Name, len(op.Operands))
	if encodable {
		name, err := t.translateEncoded(op, enc)
		if err == nil {
			return name, nil
		}
		// An encoding mismatch (attribute/region/result layout) degrades
		// to the opaque path rather than failing the translation.
	}
	return t.translateOpaque(op)
}

// attrTermsFor orders the op's attributes alphabetically and renders them,
// synthesizing a default fastmath<none> when the encoding expects one more
// attribute than the op carries (§4.2; the paper's example emits fmnone
// for ops without an explicit fastmath flag).
func (t *translator) attrTermsFor(op *mlir.Operation, want int) ([]*sexp.Node, error) {
	attrs := append([]mlir.NamedAttribute(nil), op.Attrs...)
	if len(attrs) == want-1 {
		if _, has := mlir.GetAttr(attrs, "fastmath"); !has {
			attrs = append(attrs, mlir.NamedAttribute{
				Name: "fastmath",
				Attr: mlir.FastMathAttr{Flag: mlir.FastMathNone},
			})
		}
	}
	if len(attrs) != want {
		return nil, fmt.Errorf("op has %d attributes, encoding wants %d", len(attrs), want)
	}
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	terms := make([]*sexp.Node, len(attrs))
	for i, na := range attrs {
		term, err := t.codecs.NamedAttrToTerm(na)
		if err != nil {
			return nil, err
		}
		terms[i] = term
	}
	return terms, nil
}

func (t *translator) translateEncoded(op *mlir.Operation, enc *OpEncoding) (string, error) {
	if len(op.Results) > 1 {
		return "", fmt.Errorf("multi-result op")
	}
	if len(op.Regions) != enc.NumRegions {
		return "", fmt.Errorf("op has %d regions, encoding wants %d", len(op.Regions), enc.NumRegions)
	}
	if enc.HasResultType && len(op.Results) != 1 {
		return "", fmt.Errorf("encoding carries a result type but op has %d results", len(op.Results))
	}

	attrTerms, err := t.attrTermsFor(op, enc.NumAttrs)
	if err != nil {
		return "", err
	}

	term := sexp.List(sexp.Symbol(enc.EggName))
	for _, operand := range op.Operands {
		name, err := t.operandName(operand)
		if err != nil {
			return "", err
		}
		term.List = append(term.List, sexp.Symbol(name))
	}
	term.List = append(term.List, attrTerms...)
	for _, region := range op.Regions {
		regTerm, err := t.translateRegion(region)
		if err != nil {
			return "", err
		}
		term.List = append(term.List, regTerm)
	}
	if enc.HasResultType {
		tt, err := t.codecs.TypeToTerm(op.Results[0].Typ)
		if err != nil {
			return "", err
		}
		term.List = append(term.List, tt)
	}

	name := t.fresh()
	t.emitLet(name, term)
	t.opLet[op] = name
	if len(op.Results) == 1 {
		t.letName[op.Results[0]] = name
	}
	t.out.NumTranslated++
	return name, nil
}

// translateRegion emits lets for nested block arguments and ops, returning
// the (Reg (vec-of (Blk ...))) term.
func (t *translator) translateRegion(r *mlir.Region) (*sexp.Node, error) {
	blkVec := sexp.List(sexp.Symbol("vec-of"))
	for _, b := range r.Blocks {
		for _, arg := range b.Args {
			if _, err := t.emitValue(arg); err != nil {
				return nil, err
			}
		}
		blkTerm, err := t.translateBlock(b)
		if err != nil {
			return nil, err
		}
		blkVec.List = append(blkVec.List, blkTerm)
	}
	return sexp.List(sexp.Symbol("Reg"), blkVec), nil
}

// operandName resolves the let name of an operand's defining term.
func (t *translator) operandName(v *mlir.Value) (string, error) {
	if name, ok := t.letName[v]; ok {
		return name, nil
	}
	// Block arguments are pre-registered; an unseen value here is a
	// forward reference, which SSA rules out.
	if v.IsBlockArg() {
		return t.emitValue(v)
	}
	return "", fmt.Errorf("dialegg: operand %s used before definition", v)
}

// translateOpaque emits the (Value id type) stand-in for an operation with
// no (matching) encoding. Multi-result ops get one Value per result;
// zero-result ops get a None-typed Value that only serves to keep their
// block position.
func (t *translator) translateOpaque(op *mlir.Operation) (string, error) {
	t.out.NumOpaque++
	id := t.nextID
	t.nextID++
	t.out.OpaqueOps[id] = op

	name := t.fresh()
	var typ mlir.Type = mlir.NoneType{}
	if len(op.Results) >= 1 {
		typ = op.Results[0].Typ
	}
	tt, err := t.codecs.TypeToTerm(typ)
	if err != nil {
		return "", err
	}
	term := sexp.List(sexp.Symbol("Value"), sexp.Int(id), tt)
	t.emitLet(name, term)
	t.opLet[op] = name
	if len(op.Results) >= 1 {
		t.letName[op.Results[0]] = name
		t.out.ValueIDs[id] = op.Results[0]
	}
	// Extra results each get their own Value binding keyed by fresh ids.
	for i := 1; i < len(op.Results); i++ {
		id2 := t.nextID
		t.nextID++
		t.out.OpaqueOps[id2] = op
		t.out.ValueIDs[id2] = op.Results[i]
		n2 := t.fresh()
		tt2, err := t.codecs.TypeToTerm(op.Results[i].Typ)
		if err != nil {
			return "", err
		}
		t.emitLet(n2, sexp.List(sexp.Symbol("Value"), sexp.Int(id2), tt2))
		t.letName[op.Results[i]] = n2
	}
	return name, nil
}
