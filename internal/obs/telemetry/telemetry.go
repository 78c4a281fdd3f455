// Package telemetry is the machine-facing metrics layer of the serving
// subsystem: a dependency-free registry of counters, gauges, and
// fixed-log-bucket histograms that renders in the Prometheus text
// exposition format (version 0.0.4), scrapeable by any Prometheus-
// compatible collector at egg-serve's /metrics endpoint.
//
// Where package obs answers "where did the time go in this run" (spans,
// for humans in a trace viewer), telemetry answers "what is the fleet
// doing right now" (numbers, for scrapers, load balancers, and
// autotuners). The design constraints mirror obs:
//
//   - Hot-path updates are lock-free. Counter/Gauge/Histogram updates are
//     single atomic operations; the registry mutex is taken only at
//     registration and scrape time.
//   - Aggregation-safe histograms. Latency is recorded in fixed
//     logarithmic buckets rather than a sample window, so values from N
//     replicas sum correctly on the scraper side — the property sliding-
//     window quantiles fundamentally lack, and the reason /statz's
//     p50/p99 are now derived from these buckets too.
//   - Deterministic exposition. WriteText emits families sorted by name
//     and label sets sorted by value, so scrapes diff cleanly and the
//     linter (lint.go, cmd/egg-lint) can hold the output to
//     the format's invariants in CI.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric and label name syntax, per the Prometheus data model.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// collector is one registered metric family's sample producer. write
// emits the family's sample lines (not the HELP/TYPE header).
type collector interface {
	write(w *bufio.Writer, name string)
}

// family is one registered metric: its metadata plus its collector.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	col  collector
}

// Registry holds metric families and renders them as Prometheus text.
// A nil *Registry is the disabled registry: every constructor returns a
// usable (but unregistered) instrument and WriteText writes nothing, so
// instrumented code threads it unconditionally.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on invalid or duplicate names —
// both are programmer errors caught the first time the code runs.
func (r *Registry) register(name, help, typ string, col collector) {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, col: col}
}

// WriteText renders every registered family in the Prometheus text
// exposition format, families sorted by name (HELP, TYPE, then samples).
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.col.write(bw, f.name)
	}
	return bw.Flush()
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value. Integral values print without an
// exponent or trailing zeros so counter samples stay exact and diffable.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing sample. Updates are one atomic
// add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w *bufio.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", c)
	return c
}

// Gauge is a settable sample (float64, stored as atomic bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; gauges are rarely contended).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w *bufio.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatValue(g.Value()))
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", g)
	return g
}

// funcCollector samples a callback at scrape time — the bridge for
// values that already live elsewhere (an atomic counter in the serving
// layer, a cache's internal accounting) and should not be double-
// tracked.
type funcCollector struct {
	fn func() float64
}

func (f funcCollector) write(w *bufio.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatValue(f.fn()))
}

// NewGaugeFunc registers a gauge whose value is fn() at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", funcCollector{fn})
}

// NewCounterFunc registers a counter whose value is fn() at scrape time.
// fn must be monotonically non-decreasing.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", funcCollector{fn})
}

// labeledValue is one (label values → scalar) child of a vec.
type labeledValue struct {
	counter *Counter
	gauge   *Gauge
}

// Vec is a family of scalar children keyed by label values — the
// per-rule counters (`egg_rule_matched_total{rule="..."}`) and the
// constant build_info gauge. Children are created on first use and live
// forever; callers must keep label cardinality bounded (rule names are —
// they come from the loaded rule sets, not from request payloads).
type Vec struct {
	labels  []string
	counter bool
	mu      sync.Mutex
	kids    map[string]*labeledValue
}

func (v *Vec) child(values []string) *labeledValue {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %d label values for %d labels", len(values), len(v.labels)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	lv, ok := v.kids[key]
	if !ok {
		lv = &labeledValue{}
		if v.counter {
			lv.counter = &Counter{}
		} else {
			lv.gauge = &Gauge{}
		}
		v.kids[key] = lv
	}
	return lv
}

// With returns the counter child for the given label values (counter
// vecs only).
func (v *Vec) With(values ...string) *Counter { return v.child(values).counter }

// GaugeWith returns the gauge child for the given label values (gauge
// vecs only).
func (v *Vec) GaugeWith(values ...string) *Gauge { return v.child(values).gauge }

func (v *Vec) write(w *bufio.Writer, name string) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		key string
		lv  *labeledValue
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{k, v.kids[k]})
	}
	v.mu.Unlock()
	for _, r := range rows {
		values := strings.Split(r.key, "\x00")
		var lb strings.Builder
		for i, ln := range v.labels {
			if i > 0 {
				lb.WriteByte(',')
			}
			fmt.Fprintf(&lb, "%s=%q", ln, escapeLabel(values[i]))
		}
		if r.lv.counter != nil {
			fmt.Fprintf(w, "%s{%s} %d\n", name, lb.String(), r.lv.counter.Value())
		} else {
			fmt.Fprintf(w, "%s{%s} %s\n", name, lb.String(), formatValue(r.lv.gauge.Value()))
		}
	}
}

func newVec(labels []string, counter bool) *Vec {
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l))
		}
	}
	return &Vec{labels: labels, counter: counter, kids: make(map[string]*labeledValue)}
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *Vec {
	v := newVec(labels, true)
	r.register(name, help, "counter", v)
	return v
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *Vec {
	v := newVec(labels, false)
	r.register(name, help, "gauge", v)
	return v
}

// Histogram records observations into fixed logarithmic buckets:
// upper bounds start, start*factor, ..., start*factor^(n-1), plus +Inf.
// Unlike a sliding sample window, bucket counts are cumulative and
// monotonic, so scrapes from N replicas aggregate correctly by summing —
// the property the multi-replica roadmap needs — and quantiles derived
// from them (Quantile) cover the full history, not the last 2048
// requests. Observe is two atomic adds plus a CAS on the sum.
type Histogram struct {
	bounds []float64 // ascending finite upper bounds
	counts []atomic.Uint64
	inf    atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram registers a histogram with n log-spaced buckets starting
// at upper bound start and growing by factor (> 1).
func (r *Registry) NewHistogram(name, help string, start, factor float64, n int) *Histogram {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: histogram needs start > 0, factor > 1, n >= 1")
	}
	h := &Histogram{bounds: make([]float64, n), counts: make([]atomic.Uint64, n)}
	b := start
	for i := 0; i < n; i++ {
		h.bounds[i] = b
		b *= factor
	}
	r.register(name, help, "histogram", h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts (finite buckets then +Inf).
// Concurrent Observes may straddle the reads; each bucket is internally
// consistent and the exposition re-derives cumulativity from the raw
// per-bucket counts, so monotonicity within one scrape always holds.
func (h *Histogram) snapshot() (cum []uint64, total uint64) {
	cum = make([]uint64, len(h.bounds)+1)
	var acc uint64
	for i := range h.bounds {
		acc += h.counts[i].Load()
		cum[i] = acc
	}
	acc += h.inf.Load()
	cum[len(h.bounds)] = acc
	return cum, acc
}

// Quantile returns the q-quantile (0..1) estimated from the buckets by
// linear interpolation inside the bucket the quantile falls in. An
// observation always lands in a bucket with a positive upper bound, so
// any non-empty histogram reports positive quantiles; an empty one
// reports 0. Values in the +Inf bucket clamp to the largest finite
// bound — quantiles cannot see past the bucket layout, which is the
// (documented, bounded) accuracy trade for aggregation safety.
func (h *Histogram) Quantile(q float64) float64 {
	cum, total := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	for i, c := range cum {
		if float64(c) < target {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		var below uint64
		if i > 0 {
			lower = h.bounds[i-1]
			below = cum[i-1]
		}
		width := float64(c - below)
		if width == 0 {
			return h.bounds[i]
		}
		frac := (target - float64(below)) / width
		return lower + (h.bounds[i]-lower)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) write(w *bufio.Writer, name string) {
	cum, total := h.snapshot()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatValue(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, total)
}
