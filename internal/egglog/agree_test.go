package egglog

import (
	"fmt"
	"strings"
	"testing"
)

// agreePrelude declares everything the agreement cases refer to, plus the
// Go relation whose one fact fires the rule-position run once.
const agreePrelude = `
(datatype E (Num i64) (Nil) (Blk (Vec E)))
(relation edge (i64 i64))
(function weight (i64) i64)
(set (weight 1) 10)
(let g (Num 7))
(relation Go ())
`

// TestTopLevelAndRuleActionsAgree: an expression evaluates the same as a
// top-level let and as a let in a rule action that fires once. Both
// positions must extract the same term and leave the same rows, or both
// must fail.
func TestTopLevelAndRuleActionsAgree(t *testing.T) {
	cases := []struct{ name, expr, sort string }{
		{"int", "42", "i64"},
		{"float", "2.5", "f64"},
		{"string", `"s"`, "String"},
		{"bool", "true", "bool"},
		{"let reference", "g", "E"},
		{"nullary constructor", "Nil", "E"},
		{"primitive", "(+ 2 3)", "i64"},
		{"function lookup", "(weight 1)", "i64"},
		{"vec-of", "(Blk (vec-of (Num 1) g))", "E"},
		{"empty vec-of", "(Blk (vec-of))", "E"},
		{"mixed vec-of", "(Blk (vec-of (Num 1) (weight 1)))", "E"},
		{"relation fact", "(edge 1 2)", "Unit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			top, topErr := agreeState(t, fmt.Sprintf("(let x %s)", tc.expr), "x")
			rule, ruleErr := agreeState(t, fmt.Sprintf(`
(function Got () %s :unextractable)
(rule ((Go)) ((let x %s) (set (Got) x)))
(Go)
(run 1)`, tc.sort, tc.expr), "(Got)")
			switch {
			case (topErr == nil) != (ruleErr == nil):
				t.Fatalf("top-level error %v, rule-action error %v", topErr, ruleErr)
			case top != rule:
				t.Errorf("top-level leaves\n%s\nrule action leaves\n%s", top, rule)
			}
		})
	}
}

// agreeState executes src after agreePrelude and renders what it left:
// the term extracted from root, or that there is none, and the rows of
// the prelude's tables. It fails when src fails.
func agreeState(t *testing.T, src, root string) (string, error) {
	t.Helper()
	p := NewProgram()
	mustExec(t, p, agreePrelude)
	if _, err := p.ExecuteString(src); err != nil {
		return "", err
	}
	var b strings.Builder
	if res, err := p.ExecuteString("(extract " + root + ")"); err != nil {
		b.WriteString("no term\n")
	} else {
		fmt.Fprintf(&b, "%s\n", res[0].Term)
	}
	for _, f := range []string{"Num", "Nil", "Blk", "edge", "weight"} {
		for _, row := range mustExec(t, p, "(print-function "+f+" 100)")[0].Rows {
			b.WriteString(row + "\n")
		}
	}
	return b.String(), nil
}
