package egraph

import (
	"strings"
	"testing"
)

func TestExplainEngineLevel(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	g.EnableExplanations()
	a, _ := g.Insert(l.Var, g.InternString("a"))
	b, _ := g.Insert(l.Var, g.InternString("b"))
	c, _ := g.Insert(l.Var, g.InternString("c"))
	g.UnionWithReason(a, b, Justification{Kind: "rule", Rule: "r1"})
	g.UnionWithReason(b, c, Justification{Kind: "rule", Rule: "r2"})
	g.Rebuild()

	steps, err := g.Explain(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(steps))
	}
	rendered := g.FormatExplanation(NewExtractor(g), steps)
	for _, rule := range []string{"r1", "r2"} {
		if !strings.Contains(rendered, rule) {
			t.Errorf("proof missing %q:\n%s", rule, rendered)
		}
	}
	// Both endpoints render their original terms.
	if !strings.Contains(rendered, `(Var "a")`) || !strings.Contains(rendered, `(Var "c")`) {
		t.Errorf("proof endpoints not rendered:\n%s", rendered)
	}
}

func TestExplainCongruenceEngineLevel(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	g.EnableExplanations()
	x, _ := g.Insert(l.Num, I64Value(g.I64, 1))
	y, _ := g.Insert(l.Num, I64Value(g.I64, 2))
	fx, _ := g.Insert(l.Shl, x, x)
	fy, _ := g.Insert(l.Shl, y, y)
	g.UnionWithReason(x, y, Justification{Kind: "rule", Rule: "leaf-rule"})
	g.Rebuild()

	steps, err := g.Explain(fx, fy)
	if err != nil {
		t.Fatal(err)
	}
	rendered := g.FormatExplanation(NewExtractor(g), steps)
	if !strings.Contains(rendered, "congruence of Shl") {
		t.Errorf("missing congruence step:\n%s", rendered)
	}
	if !strings.Contains(rendered, "leaf-rule") {
		t.Errorf("missing child justification:\n%s", rendered)
	}
}

func TestExplainDisabledErrors(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	a := l.num(t, 1)
	b := l.num(t, 2)
	g.Union(a, b)
	if _, err := g.Explain(a, b); err == nil {
		t.Error("Explain without EnableExplanations should fail")
	}
	if g.ExplanationsEnabled() {
		t.Error("explanations should be off by default")
	}
	g.EnableExplanations()
	if !g.ExplanationsEnabled() {
		t.Error("explanations should now be on")
	}
}

func TestExplainNotEqualErrors(t *testing.T) {
	l := newExprLang(t)
	g := l.g
	g.EnableExplanations()
	a := l.num(t, 1)
	b := l.num(t, 2)
	if _, err := g.Explain(a, b); err == nil {
		t.Error("Explain of unequal values should fail")
	}
}
