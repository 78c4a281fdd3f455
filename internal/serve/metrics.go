package serve

import (
	"sync/atomic"
	"time"

	"dialegg/internal/obs/telemetry"
)

// metrics holds the service counters. Counters are atomics incremented on
// hot paths and exposed to /metrics through scrape-time bridges
// (telemetry.NewCounterFunc — see instruments); request latency goes into
// a fixed-log-bucket telemetry histogram instead of the former
// 2048-sample sliding ring. The histogram is what /metrics exposes as
// egg_request_duration_seconds, and /statz's p50/p99 are derived from the
// same buckets — so the two endpoints can never disagree, and bucket
// counts from N replicas sum correctly on the scraper side (a property
// the sort-under-lock sample window lacked).
type metrics struct {
	requests     atomic.Uint64
	hits         atomic.Uint64
	misses       atomic.Uint64
	runs         atomic.Uint64
	errors       atomic.Uint64
	canceled     atomic.Uint64
	stopCanceled atomic.Uint64
	queueFull    atomic.Uint64
	jobPanics    atomic.Uint64
	inflight     atomic.Int64

	// latency is the egg_request_duration_seconds histogram: log-spaced
	// upper bounds from 100µs doubling up to ~52s, then +Inf. Observation
	// is two atomic adds — no lock, no sort.
	latency *telemetry.Histogram
}

// Request-duration histogram layout.
const (
	latencyStart   = 100e-6 // 100µs first bucket
	latencyFactor  = 2.0
	latencyBuckets = 20 // top finite bound ≈ 52.4s
)

// newLatencyHistogram registers the request-duration histogram on reg
// (nil reg yields an unregistered but fully functional histogram).
func newLatencyHistogram(reg *telemetry.Registry) *telemetry.Histogram {
	return reg.NewHistogram("egg_request_duration_seconds",
		"End-to-end /optimize latency in seconds (including cache hits).",
		latencyStart, latencyFactor, latencyBuckets)
}

// observe records one request's latency.
func (m *metrics) observe(d time.Duration) {
	m.latency.Observe(d.Seconds())
}

// quantiles returns the q-quantiles (0..1) of the latency distribution,
// interpolated within histogram buckets. Zeros when nothing observed.
func (m *metrics) quantiles(qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = time.Duration(m.latency.Quantile(q) * float64(time.Second))
	}
	return out
}
