package sched

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a Scheduler from a -scheduler spec:
//
//	simple
//	backoff
//	backoff:threshold=500,factor=2,ban=3
//	matchlimit
//	matchlimit:2000
//	matchlimit:limit=2000
//
// Omitted options take the strategy's defaults. Unknown kinds and
// malformed options are errors. Every Fingerprint is a spec Parse reads
// back to an equal strategy.
func Parse(spec string) (Scheduler, error) {
	kind, opts := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind, opts = spec[:i], spec[i+1:]
	}
	switch kind {
	case "", "simple":
		if opts != "" {
			return nil, fmt.Errorf("sched: simple takes no options, got %q", opts)
		}
		return Simple{}, nil

	case "backoff":
		b := Backoff{}
		if err := parseOpts(opts, map[string]*int{
			"threshold": &b.Threshold,
			"factor":    &b.Factor,
			"ban":       &b.BanLength,
		}); err != nil {
			return nil, fmt.Errorf("sched: backoff: %w", err)
		}
		return b, nil

	case "matchlimit", "match-limit":
		m := MatchLimit{}
		// A bare integer is shorthand for limit=N.
		if opts != "" && !strings.ContainsAny(opts, "=,") {
			n, err := strconv.Atoi(opts)
			if err != nil {
				return nil, fmt.Errorf("sched: matchlimit: invalid limit %q", opts)
			}
			m.Limit = n
			return m, nil
		}
		if err := parseOpts(opts, map[string]*int{"limit": &m.Limit}); err != nil {
			return nil, fmt.Errorf("sched: matchlimit: %w", err)
		}
		return m, nil

	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (want simple, backoff, or matchlimit)", kind)
	}
}

// parseOpts fills integer options from a "k=v,k=v" list.
func parseOpts(opts string, dst map[string]*int) error {
	if opts == "" {
		return nil
	}
	for _, kv := range strings.Split(opts, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("invalid option %q (want key=value)", kv)
		}
		p, known := dst[k]
		if !known {
			return fmt.Errorf("unknown option %q", k)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("option %s wants a positive integer, got %q", k, v)
		}
		*p = n
	}
	return nil
}
