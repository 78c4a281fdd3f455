package dialegg

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

// selectToIf is rules.ArithCore plus a user rule that lowers arith.select
// to an scf.if whose two regions yield the select's operands. The regions
// are new, so the back-translation has no original op to anchor them and
// searches what each region's block class reaches for the original block
// it derives from (findOriginalBlock); none exists, so the search visits
// everything.
var selectToIf = []string{rules.ArithCore, `
(function arith_select (Op Op Op Type) Op :cost 1000)
(rewrite (arith_select ?c ?a ?b ?t)
  (scf_if ?c (Reg (vec-of (Blk (vec-of (scf_yield ?a)))))
             (Reg (vec-of (Blk (vec-of (scf_yield ?b))))) ?t))
`}

// TestSelectLoweredToIf pins the back-translation of a rule that builds
// new regions: a top-level select, and a select inside an scf.for body
// whose yield uses it.
func TestSelectLoweredToIf(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"top-level", `
func.func @sel(%c: i1, %x: i64, %y: i64) -> i64 {
  %a = arith.addi %x, %y : i64
  %r = arith.select %c, %a, %y : i64
  func.return %r : i64
}`, `module {
  func.func @sel(%c: i1, %x: i64, %y: i64) -> i64 {
    %0 = arith.addi %x, %y : i64
    %1 = scf.if %c -> (i64) {
      scf.yield %0 : i64
    } else {
      scf.yield %y : i64
    }
    func.return %1 : i64
  }
}
`},
		{"in-loop", `
func.func @loop(%c: i1, %n: index, %init: i64) -> i64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %init) -> (i64) {
    %s = arith.addi %acc, %acc : i64
    %t = arith.select %c, %s, %acc : i64
    scf.yield %t : i64
  }
  func.return %r : i64
}`, `module {
  func.func @loop(%c: i1, %n: index, %init: i64) -> i64 {
    %0 = arith.constant 0 : index
    %1 = arith.constant 1 : index
    %2 = scf.for %i = %0 to %n step %1 iter_args(%acc = %init) -> (i64) {
      %3 = arith.addi %acc, %acc : i64
      %4 = scf.if %c -> (i64) {
        scf.yield %3 : i64
      } else {
        scf.yield %acc : i64
      }
      scf.yield %4 : i64
    }
    func.return %2 : i64
  }
}
`},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, _, reg := optimize(t, c.src, selectToIf)
			if got := mlir.PrintModule(m, reg); got != c.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

// TestSelectLoweringOverSharedChainIsFast lowers a select whose operand
// is a 40-deep chain of additions, each using the previous sum twice: as a
// tree the chain has 2^40 leaves, so a back-translation that walks the
// extracted program as a tree instead of by e-class never finishes.
func TestSelectLoweringOverSharedChainIsFast(t *testing.T) {
	const n = 40
	var b strings.Builder
	b.WriteString("func.func @chain(%c: i1, %x: i64, %y: i64) -> i64 {\n")
	b.WriteString("  %a0 = arith.addi %x, %x : i64\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  %%a%d = arith.addi %%a%d, %%a%d : i64\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "  %%r = arith.select %%c, %%a%d, %%y : i64\n", n)
	b.WriteString("  func.return %r : i64\n}\n")
	start := time.Now()
	m, _, _ := optimize(t, b.String(), selectToIf)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("compile took %v, want under 5s", d)
	}
	if countOps(m, "scf.if") != 1 || countOps(m, "arith.select") != 0 || countOps(m, "arith.addi") != n+1 {
		t.Errorf("select not lowered over the intact chain: %d scf.if, %d arith.select, %d arith.addi",
			countOps(m, "scf.if"), countOps(m, "arith.select"), countOps(m, "arith.addi"))
	}
}

// mulByZero is rules.ArithCore plus a rule that folds a product with
// zero to zero, leaving the product's other operand unused.
var mulByZero = []string{rules.ArithCore, `
(rewrite (arith_muli ?x (arith_constant (NamedAttr "value" (IntegerAttr 0 ?t)) ?t) ?t)
         (arith_constant (NamedAttr "value" (IntegerAttr 0 ?t)) ?t))
`}

// TestDeadChainSweepIsLinear multiplies the end of an 8,000-long chain of
// additions by zero. The rewrite leaves the whole chain dead, one link
// using the next, and the dead-op sweep must remove it in time linear in
// the function: a sweep that rebuilds its use map for every link it
// removes is quadratic and takes seconds at this length.
func TestDeadChainSweepIsLinear(t *testing.T) {
	const n = 8000
	var b strings.Builder
	b.WriteString("func.func @chain(%x: i64) -> i64 {\n")
	b.WriteString("  %zero = arith.constant 0 : i64\n")
	b.WriteString("  %a0 = arith.addi %x, %x : i64\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  %%a%d = arith.addi %%a%d, %%x : i64\n", i, i-1)
	}
	fmt.Fprintf(&b, "  %%r = arith.muli %%a%d, %%zero : i64\n", n)
	b.WriteString("  func.return %r : i64\n}\n")
	start := time.Now()
	m, _, reg := optimize(t, b.String(), mulByZero)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("compile took %v, want under 2s", d)
	}
	const want = "module {\n  func.func @chain(%x: i64) -> i64 {\n    %0 = arith.constant 0 : i64\n    func.return %0 : i64\n  }\n}\n"
	if got := mlir.PrintModule(m, reg); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}

// TestUserBlockAndRegionConstructorsRejected: a rule source may declare
// more constructors of the prelude's Block and Region sorts. When
// extraction chooses one, the back-translation must fail with an error,
// not index a vector the chosen node does not have.
func TestUserBlockAndRegionConstructorsRejected(t *testing.T) {
	for _, c := range []struct{ name, rule, src, want string }{
		{"block", `(function Bad () Block :cost 0) (rewrite (Blk ?v) (Bad))`, `
func.func @f(%x: i64) -> i64 {
  %a = arith.addi %x, %x : i64
  func.return %a : i64
}`, "malformed block term (Bad)"},
		{"region", `(function BadReg () Region :cost 0) (rewrite (Reg ?v) (BadReg))`, `
func.func @loop(%n: index, %init: i64) -> i64 {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %init) -> (i64) {
    %s = arith.addi %acc, %acc : i64
    scf.yield %s : i64
  }
  func.return %r : i64
}`, "malformed region term (BadReg)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, _ := parseModule(t, c.src)
			_, err := NewOptimizer(Options{RuleSources: []string{rules.ArithCore, c.rule}}).OptimizeModule(m)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("got error %v, want one containing %q", err, c.want)
			}
		})
	}
}
