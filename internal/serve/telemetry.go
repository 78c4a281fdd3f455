package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"dialegg/internal/dialegg"
	"dialegg/internal/obs"
	"dialegg/internal/obs/profile"
	"dialegg/internal/obs/telemetry"
)

// instruments is the server's Prometheus-facing metric set: live-updated
// gauges and counters (engine state, watchdog, slow requests) plus
// scrape-time bridges over the atomics in metrics and the memo cache's
// own accounting, so no value is tracked twice.
type instruments struct {
	engineIter      *telemetry.Gauge
	engineNodes     *telemetry.Gauge
	engineClasses   *telemetry.Gauge
	engineLiveRows  *telemetry.Gauge
	engineDeadRows  *telemetry.Gauge
	engineDeltaRows *telemetry.Gauge
	engineMatches   *telemetry.Gauge

	ruleMatched    *telemetry.Vec // egg_rule_matched_total{rule}
	ruleApplied    *telemetry.Vec // egg_rule_applied_total{rule}
	schedThrottled *telemetry.Vec // egg_scheduler_throttled_total{rule}
	schedLimited   *telemetry.Vec // egg_scheduler_limited_total{rule}

	watchdogTrips *telemetry.Counter
	slowRequests  *telemetry.Counter
}

// newInstruments registers every metric family on s.reg. Bridged values
// read the server's existing atomics (and cache.Stats()) at scrape time.
func newInstruments(s *Server) *instruments {
	reg := s.reg
	cf := func(name, help string, fn func() float64) { reg.NewCounterFunc(name, help, fn) }
	gf := func(name, help string, fn func() float64) { reg.NewGaugeFunc(name, help, fn) }
	u := func(v uint64) float64 { return float64(v) }

	cf("egg_requests_total", "Optimize requests accepted (past parsing).",
		func() float64 { return u(s.metrics.requests.Load()) })
	cf("egg_cache_hits_total", "Requests served from cache or a shared in-flight computation.",
		func() float64 { return u(s.metrics.hits.Load()) })
	cf("egg_cache_misses_total", "Requests that ran a fresh optimization.",
		func() float64 { return u(s.metrics.misses.Load()) })
	cf("egg_runs_total", "Saturation runs executed by the worker pool.",
		func() float64 { return u(s.metrics.runs.Load()) })
	cf("egg_errors_total", "Requests answered with an error status.",
		func() float64 { return u(s.metrics.errors.Load()) })
	cf("egg_canceled_total", "Requests whose client went away before completion.",
		func() float64 { return u(s.metrics.canceled.Load()) })
	cf("egg_stop_canceled_total", "Saturation runs stopped by context cancellation.",
		func() float64 { return u(s.metrics.stopCanceled.Load()) })
	cf("egg_job_panics_total", "Optimization jobs that panicked (answered with 500, never cached).",
		func() float64 { return u(s.metrics.jobPanics.Load()) })
	cf("egg_queue_full_total", "Requests rejected because the job queue was full.",
		func() float64 { return u(s.metrics.queueFull.Load()) })

	gf("egg_inflight", "Optimizations executing right now.",
		func() float64 { return float64(s.metrics.inflight.Load()) })
	gf("egg_queue_depth", "Jobs waiting for a worker.",
		func() float64 { return float64(len(s.queue)) })
	gf("egg_queue_cap", "Job queue capacity.",
		func() float64 { return float64(cap(s.queue)) })
	gf("egg_queue_age_seconds", "Age of the oldest queued job (0 when the queue is empty).",
		s.queueAges.oldestAge)
	gf("egg_workers", "Worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	gf("egg_draining", "1 while the server is draining, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	gf("egg_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	gf("egg_memo_entries", "Result-cache entries.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	gf("egg_memo_bytes", "Result-cache bytes in use.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	gf("egg_memo_max_bytes", "Result-cache byte budget.",
		func() float64 { return float64(s.cache.Stats().MaxBytes) })
	cf("egg_memo_hits_total", "Result-cache lookups that hit.",
		func() float64 { return u(s.cache.Stats().Hits) })
	cf("egg_memo_misses_total", "Result-cache lookups that missed.",
		func() float64 { return u(s.cache.Stats().Misses) })
	cf("egg_memo_evictions_total", "Result-cache entries evicted for space.",
		func() float64 { return u(s.cache.Stats().Evictions) })
	cf("egg_memo_rejected_total", "Result-cache adds rejected as larger than the budget.",
		func() float64 { return u(s.cache.Stats().Rejected) })

	gf("egg_flight_records", "Requests currently held by the flight recorder.",
		func() float64 { return float64(s.flight.Len()) })
	cf("egg_flight_total", "Requests ever recorded by the flight recorder.",
		func() float64 { return u(s.flight.Total()) })

	in := &instruments{
		engineIter: reg.NewGauge("egg_engine_iteration",
			"Saturation iteration most recently completed by any running job."),
		engineNodes: reg.NewGauge("egg_engine_nodes",
			"E-nodes after the most recent iteration."),
		engineClasses: reg.NewGauge("egg_engine_classes",
			"E-classes after the most recent iteration."),
		engineLiveRows: reg.NewGauge("egg_engine_live_rows",
			"Canonical database rows after the most recent iteration."),
		engineDeadRows: reg.NewGauge("egg_engine_dead_rows",
			"Stale (pre-congruence) rows after the most recent iteration."),
		engineDeltaRows: reg.NewGauge("egg_engine_delta_rows",
			"Delta-frontier rows the most recent iteration matched against."),
		engineMatches: reg.NewGauge("egg_engine_matches",
			"Matches applied in the most recent iteration."),
		ruleMatched: reg.NewCounterVec("egg_rule_matched_total",
			"Pattern matches found, by rewrite rule.", "rule"),
		ruleApplied: reg.NewCounterVec("egg_rule_applied_total",
			"Matches applied, by rewrite rule.", "rule"),
		schedThrottled: reg.NewCounterVec("egg_scheduler_throttled_total",
			"Iterations the rule scheduler skipped a rule (backoff ban), by rule.", "rule"),
		schedLimited: reg.NewCounterVec("egg_scheduler_limited_total",
			"Iterations a scheduler cap truncated a rule's matches, by rule.", "rule"),
		watchdogTrips: reg.NewCounter("egg_watchdog_trips_total",
			"Requests flagged by the engine health watchdog."),
		slowRequests: reg.NewCounter("egg_slow_requests_total",
			"Requests slower than the slow-request threshold."),
	}

	bi := buildInfoLabels()
	reg.NewGaugeVec("egg_build_info",
		"Build metadata; value is always 1.",
		"goversion", "revision", "version").
		GaugeWith(bi.GoVersion, bi.Revision, bi.Version).Set(1)
	return in
}

// buildInfo is what /buildz serves and egg_build_info labels.
type buildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path"`
	Version   string `json:"version"`
	Revision  string `json:"revision"`
	Modified  bool   `json:"modified,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
}

// buildInfoLabels reads the binary's embedded build metadata. Fields the
// toolchain did not record (no VCS stamp in test binaries) are "unknown".
func buildInfoLabels() buildInfo {
	out := buildInfo{GoVersion: "unknown", Path: "unknown", Version: "unknown", Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.GoVersion = bi.GoVersion
	out.Path = bi.Main.Path
	if bi.Main.Version != "" {
		out.Version = bi.Main.Version
	}
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			out.Revision = st.Value
		case "vcs.modified":
			out.Modified = st.Value == "true"
		case "vcs.time":
			out.BuildTime = st.Value
		}
	}
	return out
}

// queueAges tracks enqueue times FIFO so egg_queue_age_seconds can report
// how long the oldest queued job has been waiting — the leading indicator
// of a worker pool falling behind (queue depth says how many; age says
// how badly).
type queueAges struct {
	mu    sync.Mutex
	times []time.Time
}

func (q *queueAges) push(t time.Time) {
	q.mu.Lock()
	q.times = append(q.times, t)
	q.mu.Unlock()
}

// pop removes the oldest entry; tolerant of being empty (drain paths).
func (q *queueAges) pop() {
	q.mu.Lock()
	if len(q.times) > 0 {
		q.times = q.times[1:]
	}
	q.mu.Unlock()
}

func (q *queueAges) oldestAge() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.times) == 0 {
		return 0
	}
	return time.Since(q.times[0]).Seconds()
}

// requestObs is one request's observability context: its correlation ID,
// its private span recorder (what the flight recorder stores), and the
// watchdog's verdict. The singleflight leader's requestObs rides into the
// worker, so the engine's spans, journal stamps, and live gauges all
// carry the leader's ID.
type requestObs struct {
	id  string
	rec *obs.Recorder

	mu         sync.Mutex
	tripped    bool
	tripReason string
}

// trip marks the request watchdog-flagged; only the first call per
// request wins (and returns true), so the trip counter counts requests,
// not iterations.
func (o *requestObs) trip(reason string) bool {
	if o == nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.tripped {
		return false
	}
	o.tripped = true
	o.tripReason = reason
	return true
}

func (o *requestObs) tripState() (bool, string) {
	if o == nil {
		return false, ""
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tripped, o.tripReason
}

// reqIDKey carries the request ID through the handler context.
type reqIDKey struct{}

// newRequestID returns a fresh 16-hex-digit correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible; a constant ID
		// beats a dead server.
		return "req-entropy-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// requestIDFrom returns the request ID the ingress middleware assigned.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// statusWriter captures the status code and body size for request logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// withRequestMeta is the ingress middleware: it assigns every request a
// correlation ID (honoring an inbound X-Request-Id so multi-hop callers
// keep one key end to end), echoes it on the response, and emits one
// structured log line per request — Info for /optimize, Warn when the
// request exceeded the slow threshold, Debug for scrape/health endpoints
// so steady-state Prometheus polling doesn't drown the log.
func (s *Server) withRequestMeta(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		dur := time.Since(start)

		attrs := []any{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
			slog.Int("bytes", sw.bytes),
		}
		switch {
		case s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold && r.URL.Path == "/optimize":
			s.tel.slowRequests.Inc()
			s.logger.Warn("slow request", attrs...)
		case r.URL.Path == "/optimize":
			s.logger.Info("request", attrs...)
		default:
			s.logger.Debug("request", attrs...)
		}
	})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// handleBuildz serves build metadata plus uptime as JSON.
func (s *Server) handleBuildz(w http.ResponseWriter, _ *http.Request) {
	bi := buildInfoLabels()
	writeJSON(w, http.StatusOK, struct {
		buildInfo
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{bi, time.Since(s.start).Seconds()})
}

// flightSummary is one row of the /debugz/flightz listing.
type flightSummary struct {
	ID         string  `json:"id"`
	Start      string  `json:"start"`
	DurMS      float64 `json:"dur_ms"`
	Status     int     `json:"status"`
	Source     string  `json:"source"`
	Tripped    bool    `json:"tripped,omitempty"`
	TripReason string  `json:"trip_reason,omitempty"`
}

// handleFlightz serves the flight recorder: without ?id=, a JSON listing
// of the retained requests (oldest first); with ?id=<request id>, that
// request's span tree as Chrome trace-event JSON, loadable in any
// about:tracing-compatible viewer.
func (s *Server) handleFlightz(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		fr := s.flight.Get(id)
		if fr == nil {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no flight record for request %q", id)})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("inline; filename=%q", "flight-"+fr.ID+".trace.json"))
		_ = fr.WriteTrace(w)
		return
	}
	records := s.flight.Records()
	out := make([]flightSummary, 0, len(records))
	for _, fr := range records {
		out = append(out, flightSummary{
			ID:         fr.ID,
			Start:      fr.Start.UTC().Format(time.RFC3339Nano),
			DurMS:      float64(fr.Dur) / float64(time.Millisecond),
			Status:     fr.Status,
			Source:     fr.Source,
			Tripped:    fr.Tripped,
			TripReason: fr.TripReason,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Records []flightSummary `json:"records"`
		Total   uint64          `json:"total"`
	}{out, s.flight.Total()})
}

// profSlowEntry links one slow profiled job to its flight-recorder trace:
// the /debugz/profilez consumer jumps from a hot aggregate row straight to
// the span tree of a request that paid for it.
type profSlowEntry struct {
	ID      string  `json:"id"`
	DurMS   float64 `json:"dur_ms"`
	Flightz string  `json:"flightz"`
}

// maxProfSlow bounds the slow-request links /debugz/profilez retains.
const maxProfSlow = 16

// recordProfile folds one executed job's report into the server-wide
// aggregate profile and, when the job exceeded the slow threshold, links
// its request ID to the flight recorder. Called from runJob with
// Config.Profile set; partial reports (canceled runs) still merge so the
// aggregate accounts the work actually done.
func (s *Server) recordProfile(rep *dialegg.Report, ro *requestObs, dur time.Duration) {
	p := profile.FromRunReport(rep.Run, rep.Blame)
	s.profMu.Lock()
	defer s.profMu.Unlock()
	s.prof.Merge(p)
	if s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold && ro != nil && ro.id != "" {
		s.profSlow = append(s.profSlow, profSlowEntry{
			ID:      ro.id,
			DurMS:   float64(dur) / float64(time.Millisecond),
			Flightz: "/debugz/flightz?id=" + ro.id,
		})
		if len(s.profSlow) > maxProfSlow {
			s.profSlow = s.profSlow[len(s.profSlow)-maxProfSlow:]
		}
	}
}

// handleProfilez serves the live aggregate saturation profile: the merged
// profile artifact of every job executed since startup (same schema as
// egg-prof artifacts — the body of "profile" can be saved and fed to
// egg-prof blame/top/selectivity), plus links from recent slow requests
// to their flight-recorder traces.
func (s *Server) handleProfilez(w http.ResponseWriter, _ *http.Request) {
	if s.prof == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "profiling disabled (start egg-serve with -profile)"})
		return
	}
	s.profMu.Lock()
	body, err := json.Marshal(s.prof)
	slow := append([]profSlowEntry(nil), s.profSlow...)
	s.profMu.Unlock()
	if err != nil {
		s.failf(w, http.StatusInternalServerError, "encoding profile: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Profile      json.RawMessage `json:"profile"`
		SlowRequests []profSlowEntry `json:"slow_requests,omitempty"`
	}{body, slow})
}

// discardLogger is the default when Config.Logger is nil: structured
// logging off, zero formatting cost (handler is disabled at every level).
func discardLogger() *slog.Logger {
	return slog.New(discardHandler{})
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
