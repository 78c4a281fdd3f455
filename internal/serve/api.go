// Package serve is the optimization-as-a-service subsystem: an HTTP JSON
// API that accepts MLIR plus egglog rewrite rules and returns the
// equality-saturation-optimized MLIR, backed by a bounded worker pool
// with queue backpressure, a content-addressed result cache with
// singleflight deduplication (internal/memo), per-request cancellation
// threaded down to the saturation loop (egraph.StopCanceled), and
// graceful drain for rolling restarts.
package serve

import "dialegg/internal/memo"

// OptimizeRequest is the POST /optimize body.
type OptimizeRequest struct {
	// MLIR is the module source text to optimize.
	MLIR string `json:"mlir"`
	// RuleSet names a bundled rule set (imgconv, vecnorm, poly, matmul).
	RuleSet string `json:"rule_set,omitempty"`
	// Rules holds inline egglog source texts, executed after RuleSet's.
	Rules []string `json:"rules,omitempty"`
	// Config bounds the saturation run; nil uses server defaults.
	Config *RunOptions `json:"config,omitempty"`
}

// RunOptions is the request-settable subset of egraph.RunConfig: the
// limits that can change the optimization result, which the cache key
// hashes. The match mode is not settable; every request runs semi-naive.
type RunOptions struct {
	IterLimit   int   `json:"iter_limit,omitempty"`
	NodeLimit   int   `json:"node_limit,omitempty"`
	MatchLimit  int   `json:"match_limit,omitempty"`
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
}

// OptimizeStats is the result summary attached to every response. It is
// computed once per saturation run and then served verbatim from the
// cache, so identical requests get byte-identical responses.
type OptimizeStats struct {
	Iterations     int    `json:"iterations"`
	Nodes          int    `json:"nodes"`
	Stop           string `json:"stop"`
	NumRules       int    `json:"num_rules"`
	ExtractCost    int64  `json:"extract_cost"`
	ExtractDAGCost int64  `json:"extract_dag_cost"`
	SaturationNS   int64  `json:"saturation_ns"`
	TotalNS        int64  `json:"total_ns"`
}

// OptimizeResponse is the POST /optimize success body. Whether the result
// came from cache is reported in the X-Egg-Cache response header (hit,
// flight, or miss), not the body, so every source serves identical bytes.
type OptimizeResponse struct {
	// MLIR is the optimized module text.
	MLIR string `json:"mlir"`
	// Key is the request's content address (cache key).
	Key string `json:"key"`
	// Stats summarizes the saturation run that produced the result.
	Stats OptimizeStats `json:"stats"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ServerStats is the GET /statz body: service counters, queue and worker
// gauges, latency quantiles, and the cache's own accounting.
type ServerStats struct {
	// Requests counts optimize requests accepted past the drain check.
	Requests uint64 `json:"requests"`
	// Hits counts requests served without a dedicated saturation run:
	// cache reads plus singleflight joins. Misses counts flight leaders.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Runs counts optimizer executions — the denominator singleflight
	// shrinks: N identical concurrent requests cost one run.
	Runs uint64 `json:"runs"`
	// Errors counts failed requests (bad input, rule errors, internal).
	Errors uint64 `json:"errors"`
	// Canceled counts requests abandoned by their client; StopCanceled
	// counts saturation runs the engine actually stopped early for them.
	Canceled     uint64 `json:"canceled"`
	StopCanceled uint64 `json:"stop_canceled"`
	// QueueFull counts requests rejected by backpressure.
	QueueFull uint64 `json:"queue_full"`
	// Inflight is the number of jobs being executed right now; QueueDepth
	// the number waiting behind them.
	Inflight   int64 `json:"inflight"`
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Workers    int   `json:"workers"`
	Draining   bool  `json:"draining"`
	// LatencyP50MS/P99MS are quantiles interpolated within the buckets of
	// the request-latency histogram (cache hits included — they are the
	// product).
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	// Cache is the memo layer's accounting (entries, bytes, evictions).
	Cache memo.CacheStats `json:"cache"`
}
