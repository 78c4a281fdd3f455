package mlir

import (
	"fmt"
	"sort"
)

// Traits are structural properties of an operation kind used by the
// verifier, canonicalizer, and DialEgg translation.
type Traits struct {
	// Commutative marks ops whose first two operands may swap.
	Commutative bool
	// Pure marks side-effect-free ops (eligible for DCE and e-graph
	// rewriting without ordering constraints).
	Pure bool
	// Terminator marks ops that must end a block.
	Terminator bool
	// ConstantLike marks ops whose single result is a constant given by a
	// "value" attribute.
	ConstantLike bool
}

// FoldResult is the outcome of a successful fold: either an existing value
// that replaces the op's single result, or a constant attribute to
// materialize.
type FoldResult struct {
	// Value replaces the result when non-nil.
	Value *Value
	// Attr is a constant to materialize when Value is nil.
	Attr Attribute
}

// OpDef describes one operation kind of a dialect.
type OpDef struct {
	// Name is the fully qualified op name, e.g. "arith.addi".
	Name   string
	Traits Traits
	// Verify checks op-specific invariants; nil means no extra checks.
	Verify func(op *Operation) error
	// Parse reads the op's custom pretty syntax (everything after the op
	// name) and returns the finished operation. st carries the result
	// names from the assignment left-hand side.
	Parse func(p *Parser, st *OpParseState) (*Operation, error)
	// Print writes the op's custom pretty syntax after the name; nil uses
	// the generic form.
	Print func(ps *PrintState, op *Operation)
	// Fold attempts to simplify the op given its operands; ok is false
	// when no fold applies.
	Fold func(op *Operation) (FoldResult, bool)
}

// Registry maps operation names to their definitions. The dialects
// package builds one registry per process, freezes it and hands that
// shared value to every caller; a frozen registry never changes, so any
// number of goroutines may parse and print with it at once.
type Registry struct {
	ops      map[string]*OpDef
	dialects map[string]bool
	frozen   bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ops: make(map[string]*OpDef), dialects: make(map[string]bool)}
}

// Freeze makes r immutable: a later Register panics.
func (r *Registry) Freeze() { r.frozen = true }

// Register adds an op definition. Duplicate names, and any registration
// on a frozen registry, panic: registration happens at setup time and
// either is a programming error.
func (r *Registry) Register(def *OpDef) {
	if def.Name == "" {
		panic("mlir: OpDef with empty name")
	}
	if r.frozen {
		panic("mlir: register " + def.Name + " on a frozen registry")
	}
	if _, dup := r.ops[def.Name]; dup {
		panic("mlir: duplicate op registration: " + def.Name)
	}
	r.ops[def.Name] = def
	for i, c := range def.Name {
		if c == '.' {
			r.dialects[def.Name[:i]] = true
			break
		}
	}
}

// Lookup finds an op definition by full name.
func (r *Registry) Lookup(name string) (*OpDef, bool) {
	d, ok := r.ops[name]
	return d, ok
}

// Dialects lists the registered dialect prefixes, sorted.
func (r *Registry) Dialects() []string {
	out := make([]string, 0, len(r.dialects))
	for d := range r.dialects {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// OpNames lists all registered op names, sorted.
func (r *Registry) OpNames() []string {
	out := make([]string, 0, len(r.ops))
	for n := range r.ops {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsPure reports whether the op's kind is registered as pure. Unregistered
// ops are conservatively impure.
func (r *Registry) IsPure(op *Operation) bool {
	if d, ok := r.ops[op.Name]; ok {
		return d.Traits.Pure
	}
	return false
}

// Verify checks the whole operation tree: block structure, operand/result
// sanity, terminator placement, and per-op verifiers.
func (r *Registry) Verify(root *Operation) error {
	var firstErr error
	root.Walk(func(op *Operation) bool {
		if err := r.verifyOp(op); err != nil {
			firstErr = err
			return false
		}
		return true
	})
	return firstErr
}

func (r *Registry) verifyOp(op *Operation) error {
	for i, v := range op.Operands {
		if v == nil {
			return fmt.Errorf("mlir: %s: operand %d is nil", op.Name, i)
		}
		if v.Typ == nil {
			return fmt.Errorf("mlir: %s: operand %d has no type", op.Name, i)
		}
	}
	def, known := r.ops[op.Name]
	if known && def.Traits.Terminator {
		if op.ParentBlock != nil && op.ParentBlock.Terminator() != op {
			return fmt.Errorf("mlir: %s: terminator is not last in its block", op.Name)
		}
	}
	for _, reg := range op.Regions {
		for _, blk := range reg.Blocks {
			for _, inner := range blk.Ops[:max(0, len(blk.Ops)-1)] {
				if d, ok := r.ops[inner.Name]; ok && d.Traits.Terminator {
					return fmt.Errorf("mlir: %s: terminator %s in the middle of a block", op.Name, inner.Name)
				}
			}
		}
	}
	if known && def.Verify != nil {
		if err := def.Verify(op); err != nil {
			return fmt.Errorf("mlir: %s: %w", op.Name, err)
		}
	}
	return nil
}

// --- shared verify helpers used by dialect packages ---

// VerifySameOperandAndResultType checks all operands and the single result
// share one type.
func VerifySameOperandAndResultType(op *Operation) error {
	if len(op.Results) != 1 {
		return fmt.Errorf("expected 1 result, have %d", len(op.Results))
	}
	t := op.Results[0].Typ
	for i, o := range op.Operands {
		if !TypeEqual(o.Typ, t) {
			return fmt.Errorf("operand %d type %s does not match result type %s", i, o.Typ, t)
		}
	}
	return nil
}

// VerifyOperandCount checks the exact operand count.
func VerifyOperandCount(op *Operation, n int) error {
	if len(op.Operands) != n {
		return fmt.Errorf("expected %d operands, have %d", n, len(op.Operands))
	}
	return nil
}
