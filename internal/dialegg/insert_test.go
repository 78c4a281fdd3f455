package dialegg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/egglog"
	"dialegg/internal/mlir"
	"dialegg/internal/obs/journal"
	"dialegg/internal/rules"
)

// insertPathsAgree translates every func.func of m twice, each time into a
// fresh clone of the rule set's template with a journal attached: directly
// (translateFunc, as OptimizeFuncCtx does), and by executing the (let ...)
// text Optimizer.EggProgram prints for the function. The two journals
// must be byte-equal, the two graphs' snapshots equal, and the root let
// must hold the direct translation's root. When EggProgram fails, every
// direct translation must fail too.
func insertPathsAgree(o *Optimizer, m *mlir.Module) error {
	tmpl, err := o.template()
	if err != nil {
		return err
	}
	var funcs []*mlir.Operation
	for _, op := range m.Body().Ops {
		if op.Name == "func.func" {
			funcs = append(funcs, op)
		}
	}
	if len(funcs) == 0 {
		return nil
	}
	prog, err := o.EggProgram(m)
	if err != nil {
		for _, f := range funcs {
			if _, terr := translateFunc(f, tmpl.encs, o.opts.Codecs, tmpl.prog.Clone().Graph()); terr != nil {
				return nil
			}
		}
		return fmt.Errorf("EggProgram failed (%v) but every direct translation succeeded", err)
	}
	texts := strings.Split(prog, "\n\n")
	if len(texts) != len(funcs) {
		return fmt.Errorf("EggProgram printed %d functions, module has %d", len(texts), len(funcs))
	}
	clone := func(name string) (*egglog.Program, *journal.Writer, *bytes.Buffer) {
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		p := tmpl.prog.Clone()
		p.SetJournal(w, name)
		return p, w, &buf
	}
	for i, f := range funcs {
		name := mlir.FuncName(f)
		direct, dw, dbuf := clone(name)
		tr, err := translateFunc(f, tmpl.encs, o.opts.Codecs, direct.Graph())
		if err != nil {
			return fmt.Errorf("@%s: direct translation: %v", name, err)
		}
		lets, lw, lbuf := clone(name)
		if _, err := lets.ExecuteString(texts[i]); err != nil {
			return fmt.Errorf("@%s: executing the let program: %v", name, err)
		}
		if err := dw.Flush(); err != nil {
			return err
		}
		if err := lw.Flush(); err != nil {
			return err
		}
		if !bytes.Equal(dbuf.Bytes(), lbuf.Bytes()) {
			return fmt.Errorf("@%s: journals differ:\n--- direct ---\n%s--- let program ---\n%s", name, dbuf, lbuf)
		}
		ds, err := json.Marshal(direct.Graph().Snapshot(0))
		if err != nil {
			return err
		}
		ls, err := json.Marshal(lets.Graph().Snapshot(0))
		if err != nil {
			return err
		}
		if !bytes.Equal(ds, ls) {
			return fmt.Errorf("@%s: snapshots differ:\n direct: %s\n let program: %s", name, ds, ls)
		}
		root := strings.Fields(texts[i][strings.LastIndex(texts[i], "(let "):])[1]
		if v, ok := lets.LookupLet(root); !ok || v != tr.Root {
			return fmt.Errorf("@%s: let %s holds %v, direct root is %v", name, root, v, tr.Root)
		}
	}
	return nil
}

// TestDirectInsertMatchesLetProgram: for each TestGoldenMatrix compile,
// and for a module whose types go through a custom codec, inserting the
// translation directly leaves the graph, class for class and event for
// event, that evaluating its (let ...) program leaves.
func TestDirectInsertMatchesLetProgram(t *testing.T) {
	n := 0
	for _, file := range matrixFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, ruleSet := range matrixRuleSets {
			ruleSrcs, err := rules.Bundle(ruleSet)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mlir.ParseModule(string(src), dialects.NewRegistry())
			if err != nil {
				t.Fatalf("%s: parse: %v", file, err)
			}
			if err := insertPathsAgree(NewOptimizer(Options{RuleSources: ruleSrcs}), m); err != nil {
				t.Errorf("%s -rules %s: %v", file, ruleSet, err)
			}
			n++
		}
	}
	if n != 52 {
		t.Errorf("compared %d compiles, want the matrix's 52", n)
	}
	m, _ := parseModule(t, swapTwiceSrc)
	o := NewOptimizer(Options{
		RuleSources: []string{swapTwiceRules},
		Codecs:      &Codecs{Types: []TypeCodec{TupleTypeCodec()}},
	})
	if err := insertPathsAgree(o, m); err != nil {
		t.Errorf("Tuple2 codec: %v", err)
	}
}

// tupleBit, set in FuzzTranslateInsert's rule-set byte, translates with
// TupleTypeCodec and declares its constructor after the bundle's rules.
const tupleBit = 0x80

// FuzzTranslateInsert checks insertPathsAgree on mutated modules, seeded
// with the testdata and corpus modules under each bundled rule set, and
// with swapTwiceSrc under each rule set with the Tuple2 codec, so custom
// codec terms are inserted in the let program's order too.
func FuzzTranslateInsert(f *testing.F) {
	files, err := filepath.Glob("testdata/*.mlir")
	if err != nil {
		f.Fatal(err)
	}
	corpus, err := filepath.Glob("../difftest/testdata/corpus/*.mlir")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range append(files, corpus...) {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		for i := range matrixRuleSets {
			f.Add(string(src), uint8(i))
		}
	}
	for i := range matrixRuleSets {
		f.Add(swapTwiceSrc, uint8(i)|tupleBit)
	}
	f.Fuzz(func(t *testing.T, src string, ruleSet uint8) {
		m, err := mlir.ParseModule(src, dialects.NewRegistry())
		if err != nil {
			return
		}
		ruleSrcs, err := rules.Bundle(matrixRuleSets[int(ruleSet)%len(matrixRuleSets)])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{RuleSources: ruleSrcs}
		if ruleSet&tupleBit != 0 {
			opts.RuleSources = append(slices.Clip(ruleSrcs), tuple2Decl)
			opts.Codecs = &Codecs{Types: []TypeCodec{TupleTypeCodec()}}
		}
		if err := insertPathsAgree(NewOptimizer(opts), m); err != nil {
			t.Fatal(err)
		}
	})
}
