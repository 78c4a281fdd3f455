// Command egg-prof is the saturation profiler's offline half: it builds,
// merges, and renders canonical profile artifacts (see
// internal/obs/profile) from the observability outputs the other tools
// already produce — mutation journals (-journal on egg-opt/egglog) and
// stats JSON (--stats-json), plus profile artifacts written directly with
// their -profile flags.
//
// Usage:
//
//	egg-prof build -journal run.jsonl -stats stats.json -o profile.json
//	egg-prof merge -o all.json fn1.json fn2.json
//	egg-prof blame profile.json        # per-rule extraction cost/benefit
//	egg-prof selectivity profile.json  # sampled premise fan-out/selectivity
//	egg-prof top -n 10 profile.json    # most expensive rules
//
// build folds any mix of repeatable -journal, -stats, and -in inputs into
// one artifact; counters sum per rule. blame, selectivity, and top read
// one artifact and render a report to stdout. cmd/egg-lint validates
// artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dialegg/internal/egraph"
	"dialegg/internal/obs/profile"
)

type stringList []string

func (s *stringList) String() string { return fmt.Sprint([]string(*s)) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "egg-prof:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: egg-prof <build|merge|blame|selectivity|top> [flags] [args]")
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "build":
		return runBuild(rest)
	case "merge":
		return runMerge(rest)
	case "blame", "selectivity", "top":
		return runReport(cmd, rest)
	default:
		return usage()
	}
}

// runBuild folds journals, stats JSON, and existing artifacts into one
// profile. Inputs merge by rule name, so profiling a module run function
// by function and building once gives the same artifact as merging
// per-function artifacts.
func runBuild(args []string) error {
	fs := flag.NewFlagSet("egg-prof build", flag.ContinueOnError)
	var journals, stats, ins stringList
	fs.Var(&journals, "journal", "mutation journal (JSONL; egg-opt/egglog -journal output; repeatable)")
	fs.Var(&stats, "stats", "stats JSON (egg-opt/egglog --stats-json output; repeatable)")
	fs.Var(&ins, "in", "existing profile artifact to fold in (repeatable)")
	out := fs.String("o", "", "output artifact path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("build takes no positional arguments (use -journal/-stats/-in)")
	}
	if len(journals)+len(stats)+len(ins) == 0 {
		return fmt.Errorf("build needs at least one -journal, -stats, or -in input")
	}
	agg := profile.New()
	for _, path := range journals {
		p, err := profile.FromJournalFile(path)
		if err != nil {
			return err
		}
		agg.Merge(p)
	}
	for _, path := range stats {
		p, err := profileFromStats(path)
		if err != nil {
			return err
		}
		agg.Merge(p)
	}
	for _, path := range ins {
		p, err := profile.ReadFile(path)
		if err != nil {
			return err
		}
		agg.Merge(p)
	}
	// Journals count each (run ...) they witnessed; stats and artifacts
	// count their own runs. Nothing else to reconcile: Merge summed it.
	return emit(agg, *out)
}

// runMerge folds finished artifacts (the module/fleet aggregation path).
func runMerge(args []string) error {
	fs := flag.NewFlagSet("egg-prof merge", flag.ContinueOnError)
	out := fs.String("o", "", "output artifact path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge needs at least one artifact")
	}
	agg := profile.New()
	for _, path := range fs.Args() {
		p, err := profile.ReadFile(path)
		if err != nil {
			return err
		}
		agg.Merge(p)
	}
	return emit(agg, *out)
}

// runReport renders one artifact's blame, selectivity, or top table.
func runReport(kind string, args []string) error {
	fs := flag.NewFlagSet("egg-prof "+kind, flag.ContinueOnError)
	n := fs.Int("n", 10, "rows to show (top only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%s takes exactly one artifact", kind)
	}
	p, err := profile.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	switch kind {
	case "blame":
		if len(p.Blame) == 0 {
			return fmt.Errorf("%s has no blame section (produce it with -profile on egg-opt/egglog)", fs.Arg(0))
		}
		fmt.Print(p.FormatBlame())
	case "selectivity":
		if len(p.Selectivity) == 0 {
			return fmt.Errorf("%s has no selectivity section (produce it with -profile-sample N)", fs.Arg(0))
		}
		fmt.Print(p.FormatSelectivity())
	case "top":
		fmt.Print(p.FormatTop(*n))
	}
	return nil
}

// profileFromStats converts a --stats-json output into a profile. egg-opt
// writes a dialegg.Report with the engine report under "run" (and blame
// rows under "blame" when -profile ran); egglog writes a bare
// egraph.RunReport. The "run" key distinguishes them.
func profileFromStats(path string) (*profile.Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wrapped struct {
		Run   *egraph.RunReport `json:"run"`
		Blame []egraph.BlameRow `json:"blame"`
	}
	if err := json.Unmarshal(b, &wrapped); err == nil && wrapped.Run != nil {
		p := profile.FromRunReport(*wrapped.Run, wrapped.Blame)
		p.Sources = []string{path}
		return p, nil
	}
	var rr egraph.RunReport
	if err := json.Unmarshal(b, &rr); err != nil {
		return nil, fmt.Errorf("%s: not a stats JSON: %w", path, err)
	}
	p := profile.FromRunReport(rr, nil)
	p.Sources = []string{path}
	return p, nil
}

// emit lints and writes the artifact to path, or stdout when path is "".
func emit(p *profile.Profile, path string) error {
	if err := p.Lint(); err != nil {
		return fmt.Errorf("built profile fails lint: %w", err)
	}
	if path == "" {
		b, err := p.Encode()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	return p.Write(path)
}
