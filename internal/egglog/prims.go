// Package egglog interprets the subset of the egglog language used by
// DialEgg: sort/datatype/function declarations, let bindings, rewrite and
// rule definitions (with primitive computations and guards), saturation
// runs, checks, and cost-based extraction including the paper's
// unstable-cost extension.
package egglog

import (
	"fmt"
	"math"
	"strconv"

	"dialegg/internal/egraph"
)

// primOverload is one typed overload of a primitive name.
type primOverload struct {
	params []egraph.SortKind // expected argument kinds, in order
	result func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool)
	// resultSort yields the static output sort given argument sorts, for
	// compile-time inference.
	resultSort func(g *egraph.EGraph, args []*egraph.Sort) *egraph.Sort
}

func (o *primOverload) matches(args []*egraph.Sort) bool {
	if len(args) != len(o.params) {
		return false
	}
	for i, p := range o.params {
		if args[i].Kind != p {
			return false
		}
	}
	return true
}

// primRegistry maps primitive names to their overloads.
type primRegistry struct {
	byName map[string][]*primOverload
}

func (r *primRegistry) add(name string, o *primOverload) {
	r.byName[name] = append(r.byName[name], o)
}

// resolve finds the overload of name matching the argument sorts and wraps
// it as an egraph.Prim. The returned result sort belongs to g.
func (r *primRegistry) resolve(g *egraph.EGraph, name string, args []*egraph.Sort) (*egraph.Prim, *egraph.Sort, error) {
	for _, o := range r.byName[name] {
		if o.matches(args) {
			out := o.resultSort(g, args)
			switch out {
			case sortI64:
				out = g.I64
			case sortF64:
				out = g.F64
			case sortBool:
				out = g.Bool
			case sortString:
				out = g.Str
			}
			return &egraph.Prim{Name: name, Apply: o.result}, out, nil
		}
	}
	if len(r.byName[name]) == 0 {
		return nil, nil, fmt.Errorf("unknown primitive %q", name)
	}
	var have []string
	for _, a := range args {
		have = append(have, a.Name)
	}
	return nil, nil, fmt.Errorf("no overload of %q for argument sorts %v", name, have)
}

// isPrim reports whether name is a registered primitive.
func (r *primRegistry) isPrim(name string) bool { return len(r.byName[name]) > 0 }

// newPrimRegistry builds the builtin primitive set. kinds refer to
// egraph.SortKind; results are computed on canonical values.
func newPrimRegistry() *primRegistry {
	r := &primRegistry{byName: make(map[string][]*primOverload)}

	i64 := egraph.KindI64
	f64 := egraph.KindF64
	str := egraph.KindString
	boo := egraph.KindBool

	// Helper constructors for concise registration.
	ii2i := func(name string, f func(a, b int64) (int64, bool)) {
		r.add(name, &primOverload{
			params: []egraph.SortKind{i64, i64},
			result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
				v, ok := f(args[0].AsI64(), args[1].AsI64())
				if !ok {
					return egraph.Value{}, false
				}
				return egraph.I64Value(g.I64, v), true
			},
			resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortI64 },
		})
	}
	i2i := func(name string, f func(a int64) (int64, bool)) {
		r.add(name, &primOverload{
			params: []egraph.SortKind{i64},
			result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
				v, ok := f(args[0].AsI64())
				if !ok {
					return egraph.Value{}, false
				}
				return egraph.I64Value(g.I64, v), true
			},
			resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortI64 },
		})
	}
	ii2b := func(name string, f func(a, b int64) bool) {
		r.add(name, &primOverload{
			params: []egraph.SortKind{i64, i64},
			result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
				return egraph.BoolValue(g.Bool, f(args[0].AsI64(), args[1].AsI64())), true
			},
			resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortBool },
		})
	}
	ff2f := func(name string, f func(a, b float64) (float64, bool)) {
		r.add(name, &primOverload{
			params: []egraph.SortKind{f64, f64},
			result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
				v, ok := f(args[0].AsF64(), args[1].AsF64())
				if !ok {
					return egraph.Value{}, false
				}
				return egraph.F64Value(g.F64, v), true
			},
			resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortF64 },
		})
	}
	f2f := func(name string, f func(a float64) (float64, bool)) {
		r.add(name, &primOverload{
			params: []egraph.SortKind{f64},
			result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
				v, ok := f(args[0].AsF64())
				if !ok {
					return egraph.Value{}, false
				}
				return egraph.F64Value(g.F64, v), true
			},
			resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortF64 },
		})
	}
	ff2b := func(name string, f func(a, b float64) bool) {
		r.add(name, &primOverload{
			params: []egraph.SortKind{f64, f64},
			result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
				return egraph.BoolValue(g.Bool, f(args[0].AsF64(), args[1].AsF64())), true
			},
			resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortBool },
		})
	}
	bb2b := func(name string, f func(a, b bool) bool) {
		r.add(name, &primOverload{
			params: []egraph.SortKind{boo, boo},
			result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
				return egraph.BoolValue(g.Bool, f(args[0].AsBool(), args[1].AsBool())), true
			},
			resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortBool },
		})
	}

	// ---- i64 arithmetic ----
	ii2i("+", func(a, b int64) (int64, bool) { return a + b, true })
	ii2i("-", func(a, b int64) (int64, bool) { return a - b, true })
	ii2i("*", func(a, b int64) (int64, bool) { return a * b, true })
	ii2i("/", func(a, b int64) (int64, bool) {
		if b == 0 {
			return 0, false
		}
		if a == math.MinInt64 && b == -1 {
			return math.MinInt64, true // AArch64 wraparound semantics
		}
		return a / b, true
	})
	ii2i("%", func(a, b int64) (int64, bool) {
		if b == 0 {
			return 0, false
		}
		if a == math.MinInt64 && b == -1 {
			return 0, true // AArch64 wraparound semantics
		}
		return a % b, true
	})
	ii2i("<<", func(a, b int64) (int64, bool) {
		if b < 0 || b >= 64 {
			return 0, false
		}
		return a << uint(b), true
	})
	ii2i(">>", func(a, b int64) (int64, bool) {
		if b < 0 || b >= 64 {
			return 0, false
		}
		return a >> uint(b), true
	})
	ii2i("&", func(a, b int64) (int64, bool) { return a & b, true })
	ii2i("|", func(a, b int64) (int64, bool) { return a | b, true })
	ii2i("^", func(a, b int64) (int64, bool) { return a ^ b, true })
	ii2i("min", func(a, b int64) (int64, bool) { return min(a, b), true })
	ii2i("max", func(a, b int64) (int64, bool) { return max(a, b), true })
	i2i("abs", func(a int64) (int64, bool) {
		if a < 0 {
			return -a, true
		}
		return a, true
	})
	i2i("-", func(a int64) (int64, bool) { return -a, true })
	// log2 is exact floor-log2 of a positive integer; fails on n <= 0.
	// Together with the pow2 guard it implements the paper's §7.2 rule.
	i2i("log2", func(a int64) (int64, bool) {
		if a <= 0 {
			return 0, false
		}
		k := int64(0)
		for m := a; m > 1; m >>= 1 {
			k++
		}
		return k, true
	})

	// ---- i64 comparisons ----
	ii2b("<", func(a, b int64) bool { return a < b })
	ii2b(">", func(a, b int64) bool { return a > b })
	ii2b("<=", func(a, b int64) bool { return a <= b })
	ii2b(">=", func(a, b int64) bool { return a >= b })
	ii2b("!=", func(a, b int64) bool { return a != b })

	// ---- f64 arithmetic ----
	ff2f("+", func(a, b float64) (float64, bool) { return a + b, true })
	ff2f("-", func(a, b float64) (float64, bool) { return a - b, true })
	ff2f("*", func(a, b float64) (float64, bool) { return a * b, true })
	ff2f("/", func(a, b float64) (float64, bool) {
		if b == 0 {
			return 0, false
		}
		return a / b, true
	})
	ff2f("min", func(a, b float64) (float64, bool) { return math.Min(a, b), true })
	ff2f("max", func(a, b float64) (float64, bool) { return math.Max(a, b), true })
	ff2f("pow", func(a, b float64) (float64, bool) { return math.Pow(a, b), true })
	f2f("abs", func(a float64) (float64, bool) { return math.Abs(a), true })
	f2f("sqrt", func(a float64) (float64, bool) {
		if a < 0 {
			return 0, false
		}
		return math.Sqrt(a), true
	})
	f2f("-", func(a float64) (float64, bool) { return -a, true })

	// ---- f64 comparisons ----
	ff2b("<", func(a, b float64) bool { return a < b })
	ff2b(">", func(a, b float64) bool { return a > b })
	ff2b("<=", func(a, b float64) bool { return a <= b })
	ff2b(">=", func(a, b float64) bool { return a >= b })
	ff2b("!=", func(a, b float64) bool { return a != b })

	// ---- bool ----
	bb2b("and", func(a, b bool) bool { return a && b })
	bb2b("or", func(a, b bool) bool { return a || b })
	bb2b("xor", func(a, b bool) bool { return a != b })
	r.add("not", &primOverload{
		params: []egraph.SortKind{boo},
		result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
			return egraph.BoolValue(g.Bool, !args[0].AsBool()), true
		},
		resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortBool },
	})

	// ---- conversions ----
	r.add("to-f64", &primOverload{
		params: []egraph.SortKind{i64},
		result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
			return egraph.F64Value(g.F64, float64(args[0].AsI64())), true
		},
		resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortF64 },
	})
	r.add("to-i64", &primOverload{
		params: []egraph.SortKind{f64},
		result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
			f := args[0].AsF64()
			if f != math.Trunc(f) || math.IsInf(f, 0) || math.IsNaN(f) {
				return egraph.Value{}, false
			}
			return egraph.I64Value(g.I64, int64(f)), true
		},
		resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortI64 },
	})
	r.add("to-string", &primOverload{
		params: []egraph.SortKind{i64},
		result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
			return g.InternString(strconv.FormatInt(args[0].AsI64(), 10)), true
		},
		resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortString },
	})

	// ---- strings ----
	r.add("+", &primOverload{
		params: []egraph.SortKind{str, str},
		result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
			return g.InternString(g.StringOf(args[0]) + g.StringOf(args[1])), true
		},
		resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortString },
	})

	// ---- vectors ----
	r.add("vec-get", &primOverload{
		params: []egraph.SortKind{egraph.KindVec, i64},
		result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
			elems := g.VecElems(args[0])
			i := args[1].AsI64()
			if i < 0 || int(i) >= len(elems) {
				return egraph.Value{}, false
			}
			return elems[i], true
		},
		resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return s[0].Elem },
	})
	r.add("vec-length", &primOverload{
		params: []egraph.SortKind{egraph.KindVec},
		result: func(g *egraph.EGraph, args []egraph.Value) (egraph.Value, bool) {
			return egraph.I64Value(g.I64, int64(len(g.VecElems(args[0])))), true
		},
		resultSort: func(_ *egraph.EGraph, s []*egraph.Sort) *egraph.Sort { return sortI64 },
	})

	return r
}

// Sentinel sorts used only for compile-time result-sort computation; they
// are replaced by the program's actual builtin sorts at resolution time.
var (
	sortI64    = &egraph.Sort{Name: "i64", Kind: egraph.KindI64}
	sortF64    = &egraph.Sort{Name: "f64", Kind: egraph.KindF64}
	sortBool   = &egraph.Sort{Name: "bool", Kind: egraph.KindBool}
	sortString = &egraph.Sort{Name: "String", Kind: egraph.KindString}
)
