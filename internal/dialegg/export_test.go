package dialegg

import (
	"errors"

	"dialegg/internal/egglog"
	"dialegg/internal/mlir"
)

// ResetTemplates empties the process-wide template cache, so the next
// compile of every rule set builds its template afresh.
func ResetTemplates() {
	templates.mu.Lock()
	defer templates.mu.Unlock()
	clear(templates.m)
}

// TranslateRuns returns a function that translates every func.func of m
// into a fresh clone of the template of the rule set sources, as
// OptimizeFuncCtx does before saturating. The clones for n calls are made
// up front, so an allocation count of the function covers the
// translation alone.
func TranslateRuns(sources []string, m *mlir.Module, n int) (func() error, error) {
	tmpl, err := NewOptimizer(Options{RuleSources: sources}).template()
	if err != nil {
		return nil, err
	}
	funcs := m.Funcs()
	clones := make([]*egglog.Program, n*len(funcs))
	for i := range clones {
		clones[i] = tmpl.prog.Clone()
	}
	return func() error {
		for _, f := range funcs {
			if len(clones) == 0 {
				return errors.New("TranslateRuns: out of clones")
			}
			if _, err := translateFunc(f, tmpl.encs, nil, clones[0].Graph()); err != nil {
				return err
			}
			clones = clones[1:]
		}
		return nil
	}, nil
}
