package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Lint validates a Prometheus text exposition (the bytes a /metrics
// scrape returns) against the format's structural invariants:
//
//   - metric and label names match the data model's syntax
//   - every sample's family has a preceding # TYPE (and # HELP) line,
//     with a known type, declared at most once
//   - sample values parse as floats; counter samples are non-negative
//   - no duplicate sample (same name and label set twice)
//   - histogram families carry _bucket/_sum/_count series, bucket counts
//     are cumulative (monotonically non-decreasing in le order), an +Inf
//     bucket exists, and it equals _count
//
// It returns the number of sample lines validated. It is the metrics
// analogue of obs.ValidateTrace, run by cmd/egg-lint in
// `make metrics-smoke` and over live scrapes in the serve tests.
func Lint(data []byte) (int, error) {
	fams := make(map[string]*famInfo)
	seen := make(map[string]bool) // name+labels dedup
	type bucketSample struct {
		le  float64
		val float64
		raw string
	}
	buckets := make(map[string][]bucketSample) // base name -> le samples
	counts := make(map[string]float64)         // base name -> _count value
	sums := make(map[string]bool)              // base name -> _sum present

	samples := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return samples, fmt.Errorf("metrics: line %d: %w", lineNo, err)
			}
			if kind == "" {
				continue // free-form comment
			}
			if !metricNameRe.MatchString(name) {
				return samples, fmt.Errorf("metrics: line %d: invalid metric name %q", lineNo, name)
			}
			f := fams[name]
			if f == nil {
				f = &famInfo{}
				fams[name] = f
			}
			switch kind {
			case "HELP":
				f.hasHelp = true
			case "TYPE":
				if f.typ != "" {
					return samples, fmt.Errorf("metrics: line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = rest
				default:
					return samples, fmt.Errorf("metrics: line %d: unknown type %q for %s", lineNo, rest, name)
				}
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return samples, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		samples++
		base := familyOf(name, fams)
		f := fams[base]
		if f == nil || f.typ == "" {
			return samples, fmt.Errorf("metrics: line %d: sample %s has no # TYPE", lineNo, name)
		}
		if !f.hasHelp {
			return samples, fmt.Errorf("metrics: line %d: sample %s has no # HELP", lineNo, name)
		}
		key := name + "\x00" + canonicalLabels(labels)
		if seen[key] {
			return samples, fmt.Errorf("metrics: line %d: duplicate sample %s{%s}", lineNo, name, canonicalLabels(labels))
		}
		seen[key] = true
		if f.typ == "counter" && value < 0 {
			return samples, fmt.Errorf("metrics: line %d: counter %s is negative (%g)", lineNo, name, value)
		}
		if f.typ == "histogram" {
			switch {
			case name == base+"_bucket":
				leStr, ok := labels["le"]
				if !ok {
					return samples, fmt.Errorf("metrics: line %d: %s without le label", lineNo, name)
				}
				le := math.Inf(1)
				if leStr != "+Inf" {
					if le, err = strconv.ParseFloat(leStr, 64); err != nil {
						return samples, fmt.Errorf("metrics: line %d: bad le %q", lineNo, leStr)
					}
				}
				buckets[base] = append(buckets[base], bucketSample{le: le, val: value, raw: leStr})
			case name == base+"_sum":
				sums[base] = true
			case name == base+"_count":
				counts[base] = value
			}
		}
	}
	if err := sc.Err(); err != nil {
		return samples, fmt.Errorf("metrics: %w", err)
	}

	// Cross-line histogram invariants.
	histNames := make([]string, 0, len(fams))
	for n, f := range fams {
		if f.typ == "histogram" {
			histNames = append(histNames, n)
		}
	}
	sort.Strings(histNames)
	for _, base := range histNames {
		bs := buckets[base]
		if len(bs) == 0 {
			return samples, fmt.Errorf("metrics: histogram %s has no _bucket samples", base)
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		prev := -1.0
		for _, b := range bs {
			if b.val < prev {
				return samples, fmt.Errorf("metrics: histogram %s: bucket le=%s count %g < previous %g (not cumulative)", base, b.raw, b.val, prev)
			}
			prev = b.val
		}
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return samples, fmt.Errorf("metrics: histogram %s has no +Inf bucket", base)
		}
		cnt, ok := counts[base]
		if !ok {
			return samples, fmt.Errorf("metrics: histogram %s has no _count", base)
		}
		if !sums[base] {
			return samples, fmt.Errorf("metrics: histogram %s has no _sum", base)
		}
		if last.val != cnt {
			return samples, fmt.Errorf("metrics: histogram %s: +Inf bucket %g != _count %g", base, last.val, cnt)
		}
	}
	if samples == 0 {
		return 0, fmt.Errorf("metrics: no samples")
	}
	return samples, nil
}

// parseComment splits a "# HELP name text" / "# TYPE name type" line.
// Other comments return kind "".
func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	var k string
	switch {
	case strings.HasPrefix(body, "HELP "):
		k = "HELP"
	case strings.HasPrefix(body, "TYPE "):
		k = "TYPE"
	default:
		return "", "", "", nil
	}
	body = strings.TrimPrefix(body, k+" ")
	sp := strings.IndexByte(body, ' ')
	if sp < 0 {
		if k == "HELP" {
			return k, body, "", nil // help text may be empty
		}
		return "", "", "", fmt.Errorf("malformed %s line", k)
	}
	return k, body[:sp], strings.TrimSpace(body[sp+1:]), nil
}

// parseSample splits a sample line into name, labels, and value.
// Timestamps (an optional trailing integer) are accepted and ignored.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	if brace := strings.IndexByte(line, '{'); brace >= 0 {
		name = line[:brace]
		end := strings.IndexByte(line[brace:], '}')
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		if labels, err = parseLabels(line[brace+1 : brace+end]); err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(line[brace+end+1:])
	} else {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample without value")
		}
		name = line[:sp]
		rest = strings.TrimSpace(line[sp:])
	}
	if !metricNameRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample %s: want value [timestamp], got %q", name, rest)
	}
	value, err = parseValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("sample %s: bad value %q", name, fields[0])
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, 0, fmt.Errorf("sample %s: bad timestamp %q", name, fields[1])
		}
	}
	return name, labels, value, nil
}

// parseValue parses a sample value, accepting the format's special
// spellings +Inf, -Inf, and NaN.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses `k="v",k2="v2"` with escape handling.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without value in %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		if !labelNameRe.MatchString(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[i])
				default:
					val.WriteByte('\\')
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

// canonicalLabels renders a label set sorted by name, for dedup keys.
func canonicalLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// familyOf maps a sample name to its declared family: histogram samples
// carry _bucket/_sum/_count suffixes on the family name.
func familyOf(name string, fams map[string]*famInfo) string {
	if _, ok := fams[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f := fams[base]; f != nil && (f.typ == "histogram" || f.typ == "summary") {
				return base
			}
		}
	}
	return name
}

// famInfo is one declared family's metadata while linting.
type famInfo struct {
	typ     string
	hasHelp bool
}
