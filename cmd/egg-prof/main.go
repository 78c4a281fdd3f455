// Command egg-prof merges and renders the saturation-profile artifacts
// (see internal/obs/profile) that egg-opt and egglog write with -profile.
//
// Usage:
//
//	egg-prof merge -o all.json fn1.json fn2.json
//	egg-prof blame profile.json        # per-rule extraction cost/benefit
//	egg-prof selectivity profile.json  # premise fan-out/selectivity
//	egg-prof top -n 10 profile.json    # most expensive rules
//
// merge folds artifacts into one; counters sum per rule. blame,
// selectivity, and top read one artifact and render a report to stdout.
// cmd/egg-lint validates artifacts.
package main

import (
	"flag"
	"fmt"
	"os"

	"dialegg/internal/obs/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "egg-prof:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: egg-prof <merge|blame|selectivity|top> [flags] [args]")
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "merge":
		return runMerge(rest)
	case "blame", "selectivity", "top":
		return runReport(cmd, rest)
	default:
		return usage()
	}
}

// runMerge folds finished artifacts, e.g. one per module function or per
// run, into one.
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
		report := p.FormatSelectivity()
		if report == "" {
			return fmt.Errorf("%s has no premise counters (produce it with -profile on egg-opt/egglog)", fs.Arg(0))
		}
		fmt.Print(report)
	case "top":
		fmt.Print(p.FormatTop(*n))
	}
	return nil
}

// emit lints and writes the artifact to path, or stdout when path is "".
func emit(p *profile.Profile, path string) error {
	if err := p.Lint(); err != nil {
		return fmt.Errorf("merged profile fails lint: %w", err)
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
