package dialegg

import (
	"fmt"
	"strconv"
	"strings"

	"dialegg/internal/egglog"
	"dialegg/internal/egraph"
	"dialegg/internal/sexp"
)

// OpEncoding records how one egglog Op-constructor maps to an MLIR
// operation: the outcome of the preparation phase (§5.1). The parameter
// layout is positional: NumOperands Op parameters, then NumAttrs AttrPair
// parameters, then NumRegions Region parameters, then (optionally) the
// result Type.
type OpEncoding struct {
	// EggName is the egglog function name, possibly with a variadic arity
	// suffix (func_call_3).
	EggName string
	// MLIRName is the corresponding MLIR op name.
	MLIRName string
	// NumOperands, NumAttrs, NumRegions describe the parameter layout.
	NumOperands int
	NumAttrs    int
	NumRegions  int
	// HasResultType records whether the trailing parameter is the result
	// Type.
	HasResultType bool
	// Cost is the declared extraction cost.
	Cost int64
	// fn is the egglog function the translation inserts.
	fn *egraph.Function
}

// encodingKey identifies an encoding by MLIR name and operand count, so
// variadic variants (func_call_0, func_call_3) coexist.
type encodingKey struct {
	mlirName    string
	numOperands int
}

// Encodings is the registry produced by the preparation phase, with the
// handles of the prelude constructors the translation inserts.
type Encodings struct {
	byKey     map[encodingKey]*OpEncoding
	byEggName map[string]*OpEncoding
	fns       [numBuiltins]*egraph.Function
}

// Lookup finds the encoding for an MLIR op name with the given operand
// count.
func (e *Encodings) Lookup(mlirName string, numOperands int) (*OpEncoding, bool) {
	enc, ok := e.byKey[encodingKey{mlirName, numOperands}]
	return enc, ok
}

// LookupEgg finds an encoding by its egglog function name.
func (e *Encodings) LookupEgg(eggName string) (*OpEncoding, bool) {
	enc, ok := e.byEggName[eggName]
	return enc, ok
}

// preludeOpFunctions are Op-returning prelude functions that are not MLIR
// operation encodings.
var preludeOpFunctions = map[string]bool{"Value": true}

// Prepare scans the program's declared functions for MLIR operation
// encodings (every function whose output sort is Op, §5.1) and installs
// the automatic type-of analysis rule for each encoding that carries a
// result type, so that terms created by rewrites also know their types.
func Prepare(p *egglog.Program) (*Encodings, error) {
	g := p.Graph()
	encs := &Encodings{
		byKey:     make(map[encodingKey]*OpEncoding),
		byEggName: make(map[string]*OpEncoding),
	}

	opSort, ok := g.SortByName("Op")
	if !ok {
		return nil, fmt.Errorf("dialegg: prelude not loaded: sort Op missing")
	}
	for k, name := range builtinNames {
		if encs.fns[k], ok = g.FunctionByName(name); !ok {
			return nil, fmt.Errorf("dialegg: prelude not loaded: function %s missing", name)
		}
	}
	attrPairSort, _ := g.SortByName("AttrPair")
	regionSort, _ := g.SortByName("Region")
	typeSort, _ := g.SortByName("Type")

	for _, f := range g.Functions() {
		if f.Out != opSort || preludeOpFunctions[f.Name] {
			continue
		}
		enc := &OpEncoding{EggName: f.Name, Cost: f.Cost, fn: f}
		valid := true
		stage := 0 // 0=operands, 1=attrs, 2=regions, 3=type
		for _, param := range f.Params {
			switch {
			case param == opSort:
				if stage > 0 {
					valid = false
				}
				enc.NumOperands++
			case param == attrPairSort:
				if stage > 1 {
					valid = false
				}
				stage = 1
				enc.NumAttrs++
			case param == regionSort:
				if stage > 2 {
					valid = false
				}
				stage = 2
				enc.NumRegions++
			case param == typeSort:
				if enc.HasResultType {
					valid = false
				}
				stage = 3
				enc.HasResultType = true
			default:
				valid = false
			}
			if !valid {
				break
			}
		}
		if !valid {
			// Not an op encoding (helper constructor over Op); skip.
			continue
		}
		base, arity := splitAritySuffix(f.Name)
		if arity >= 0 && arity != enc.NumOperands {
			return nil, fmt.Errorf("dialegg: %s: arity suffix %d does not match %d Op parameters", f.Name, arity, enc.NumOperands)
		}
		enc.MLIRName = MLIROpName(base)
		key := encodingKey{enc.MLIRName, enc.NumOperands}
		if prev, dup := encs.byKey[key]; dup {
			return nil, fmt.Errorf("dialegg: duplicate encoding for %s/%d: %s and %s", enc.MLIRName, enc.NumOperands, prev.EggName, f.Name)
		}
		encs.byKey[key] = enc
		encs.byEggName[f.Name] = enc

		if enc.HasResultType {
			if err := installTypeOfRule(p, f, enc); err != nil {
				return nil, err
			}
		}
	}
	return encs, nil
}

// splitAritySuffix splits "func_call_3" into ("func_call", 3); names
// without a numeric suffix return arity -1. A single trailing digit group
// is only treated as an arity suffix when preceded by '_' and the prefix
// still contains an underscore (so "arith_addi" stays intact but a
// hypothetical "f_1" splits).
func splitAritySuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '_')
	if i <= 0 || i == len(name)-1 {
		return name, -1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || !strings.Contains(name[:i], "_") {
		return name, -1
	}
	return name[:i], n
}

// installTypeOfRule adds: (rule ((= ?op (f ?a1 ... ?t))) ((set (type-of ?op) ?t)))
func installTypeOfRule(p *egglog.Program, f *egraph.Function, enc *OpEncoding) error {
	pattern := sexp.List(sexp.Symbol(f.Name))
	for i := 0; i < len(f.Params)-1; i++ {
		pattern.List = append(pattern.List, sexp.Symbol(fmt.Sprintf("?a%d", i)))
	}
	pattern.List = append(pattern.List, sexp.Symbol("?t"))
	rule := sexp.List(
		sexp.Symbol("rule"),
		sexp.List(sexp.List(sexp.Symbol("="), sexp.Symbol("?op"), pattern)),
		sexp.List(sexp.List(sexp.Symbol("set"),
			sexp.List(sexp.Symbol("type-of"), sexp.Symbol("?op")),
			sexp.Symbol("?t"))),
		sexp.Symbol(":name"), sexp.String("type-of/"+f.Name),
	)
	_, err := p.Execute([]*sexp.Node{rule})
	return err
}
