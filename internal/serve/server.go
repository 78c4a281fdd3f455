package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/memo"
	"dialegg/internal/mlir"
	"dialegg/internal/obs"
	"dialegg/internal/obs/profile"
	"dialegg/internal/obs/telemetry"
	"dialegg/internal/rules"
	"dialegg/internal/sched"
)

// ErrQueueFull is returned (and mapped to 503) when the job queue is at
// capacity — the backpressure signal that tells callers to retry later
// rather than letting latency grow without bound.
var ErrQueueFull = errors.New("serve: job queue full")

// statusClientClosedRequest is the (nginx-convention) status recorded for
// requests whose client went away; the write itself is usually moot.
const statusClientClosedRequest = 499

// maxBodyBytes caps /optimize request bodies; a longer body gets 413.
const maxBodyBytes = 8 << 20

// Config configures a Server. Zero fields get defaults.
type Config struct {
	// Workers bounds how many optimizations execute concurrently
	// (default GOMAXPROCS). Each worker runs one job at a time; the
	// saturation run inside a job may itself use a match-phase pool, so
	// heavy deployments typically set Workers below GOMAXPROCS.
	Workers int
	// QueueSize bounds jobs waiting for a worker (default 64). A full
	// queue rejects new work with 503 + Retry-After instead of queueing
	// unboundedly.
	QueueSize int
	// CacheBytes budgets the content-addressed result cache (default
	// 64 MiB; <= 0 disables caching).
	CacheBytes int64
	// DefaultRules are the egglog sources used when a request names no
	// rule set and carries none inline.
	DefaultRules []string
	// SatWorkers bounds each job's match-phase worker pool (default 1:
	// the service parallelizes across requests, not within one).
	SatWorkers int
	// Logger receives structured request logs and watchdog warnings
	// (default: discard). Each line carries the request's correlation ID.
	Logger *slog.Logger
	// SlowThreshold, when > 0, logs /optimize requests at Warn (and
	// counts egg_slow_requests_total) once they exceed it.
	SlowThreshold time.Duration
	// FlightSize bounds the always-on flight recorder ring (default 32
	// requests; < 0 disables it).
	FlightSize int
	// Watchdog tunes the engine health watchdog (zero value = defaults).
	Watchdog WatchdogConfig
	// Profile enables the live aggregate saturation profile served at
	// /debugz/profilez: every executed job's per-rule metrics, which every
	// run keeps, and premise counters (RunConfig.Selectivity) are joined
	// with an extraction blame analysis and folded into a server-wide
	// profile artifact. It costs the premise fold and the blame walk per
	// run (cache hits cost nothing); off by default.
	Profile bool
	// Schedule, when non-nil, is a linted dialegg-schedule/v2 artifact
	// (egg-tune output): each request's rule set resolves to its entry
	// (or the artifact's default entry) and runs under that scheduler.
	// The scheduler participates in the content-address key, so tuned
	// and untuned results never share cache entries.
	Schedule *sched.Artifact
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.SatWorkers <= 0 {
		c.SatWorkers = 1
	}
	if c.Logger == nil {
		c.Logger = discardLogger()
	}
	if c.FlightSize == 0 {
		c.FlightSize = 32
	}
	c.Watchdog = c.Watchdog.withDefaults()
	return c
}

// job is one unit of worker-pool work: an optimization the singleflight
// layer decided actually has to run.
type job struct {
	ctx  context.Context
	work *workItem
	obs  *requestObs // the singleflight leader's observability context
	done chan struct{}
	resp []byte
	err  error
}

// workItem is the resolved, canonicalized form of a request — everything
// a worker needs, with parsing and key derivation already done on the
// handler goroutine.
type workItem struct {
	key       string
	canonical string
	rules     []string
	cfg       egraph.RunConfig
}

// Server is the optimization service: an http.Handler plus the worker
// pool, cache, and singleflight group behind it. Create with New, mount
// Handler (or use cmd/egg-serve), and stop with Drain.
type Server struct {
	cfg       Config
	cache     *memo.Cache
	group     *memo.Group
	queue     chan *job
	stop      chan struct{} // closed by Drain; workers finish the queue and exit
	metrics   metrics
	mux       *http.ServeMux
	handler   http.Handler // mux wrapped in the request-ID/logging middleware
	draining  atomic.Bool
	reqWG     sync.WaitGroup // in-flight HTTP handlers
	workerWG  sync.WaitGroup // worker goroutines
	drainOnce sync.Once

	// Telemetry plane: Prometheus registry + live instruments, structured
	// logger, always-on flight recorder, queue-age tracking, start time.
	reg       *telemetry.Registry
	tel       *instruments
	logger    *slog.Logger
	flight    *obs.FlightRecorder
	queueAges queueAges
	start     time.Time

	// Live aggregate saturation profile (Config.Profile): every executed
	// job's profile merges in under profMu; profSlow keeps the most recent
	// slow jobs with their flight-recorder links.
	profMu   sync.Mutex
	prof     *profile.Profile
	profSlow []profSlowEntry

	// jobHook, when set (by tests), runs at the start of every executed
	// job, inside its panic isolation.
	jobHook func(*workItem)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  memo.NewCache(cfg.CacheBytes),
		group:  memo.NewGroup(),
		queue:  make(chan *job, cfg.QueueSize),
		stop:   make(chan struct{}),
		mux:    http.NewServeMux(),
		reg:    telemetry.NewRegistry(),
		logger: cfg.Logger,
		start:  time.Now(),
	}
	if cfg.FlightSize > 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightSize)
	}
	s.metrics.latency = newLatencyHistogram(s.reg)
	s.tel = newInstruments(s)
	s.mux.HandleFunc("/optimize", s.handleOptimize)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/buildz", s.handleBuildz)
	s.mux.HandleFunc("/debugz/flightz", s.handleFlightz)
	s.mux.HandleFunc("/debugz/profilez", s.handleProfilez)
	if cfg.Profile {
		s.prof = profile.New()
	}
	s.handler = s.withRequestMeta(s.mux)
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain gracefully stops the server: new optimize requests are rejected
// with 503, in-flight handlers run to completion (bounded by ctx), then
// the workers finish whatever is still queued — abandoned jobs are
// skipped via their canceled flight contexts — and exit. The queue
// channel is never closed (late singleflight goroutines may still try a
// non-blocking enqueue); workers are told to stop through a separate
// signal. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		done := make(chan struct{})
		go func() {
			s.reqWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
		}
		close(s.stop)
		s.workerWG.Wait()
	})
}

// Stats snapshots the service counters.
func (s *Server) Stats() ServerStats {
	q := s.metrics.quantiles(0.50, 0.99)
	return ServerStats{
		Requests:     s.metrics.requests.Load(),
		Hits:         s.metrics.hits.Load(),
		Misses:       s.metrics.misses.Load(),
		Runs:         s.metrics.runs.Load(),
		Errors:       s.metrics.errors.Load(),
		Canceled:     s.metrics.canceled.Load(),
		StopCanceled: s.metrics.stopCanceled.Load(),
		QueueFull:    s.metrics.queueFull.Load(),
		Inflight:     s.metrics.inflight.Load(),
		QueueDepth:   len(s.queue),
		QueueCap:     cap(s.queue),
		Workers:      s.cfg.Workers,
		Draining:     s.draining.Load(),
		LatencyP50MS: float64(q[0]) / float64(time.Millisecond),
		LatencyP99MS: float64(q[1]) / float64(time.Millisecond),
		Cache:        s.cache.Stats(),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) failf(w http.ResponseWriter, code int, format string, args ...any) {
	s.metrics.errors.Add(1)
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// resolve turns a request into a workItem: bundled + inline rules,
// request config over server defaults, canonical module text, and the
// content-address key.
func (s *Server) resolve(req *OptimizeRequest) (*workItem, error) {
	ruleSrcs, err := rules.Bundle(req.RuleSet)
	if err != nil {
		return nil, err
	}
	ruleSrcs = append(ruleSrcs, req.Rules...)
	if req.RuleSet == "" && len(req.Rules) == 0 {
		ruleSrcs = s.cfg.DefaultRules
	}
	var cfg egraph.RunConfig
	if o := req.Config; o != nil {
		cfg.IterLimit = o.IterLimit
		cfg.NodeLimit = o.NodeLimit
		cfg.MatchLimit = o.MatchLimit
		cfg.TimeLimit = time.Duration(o.TimeLimitMS) * time.Millisecond
	}
	cfg.Workers = s.cfg.SatWorkers
	// Scheduler resolution happens before the key is computed: a tuned
	// schedule changes results, so it must be part of result identity.
	if s.cfg.Schedule != nil {
		cfg.Scheduler = s.cfg.Schedule.For(req.RuleSet)
	}
	canonical, err := memo.CanonicalizeMLIR(req.MLIR)
	if err != nil {
		return nil, fmt.Errorf("parsing module: %w", err)
	}
	return &workItem{
		key:       memo.Key(canonical, ruleSrcs, cfg),
		canonical: canonical,
		rules:     ruleSrcs,
		cfg:       cfg,
	}, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	// Register with the drain barrier before checking it: Drain flips the
	// flag then waits for reqWG, so every handler either sees draining or
	// is waited for — none can enqueue after the queue closes.
	s.reqWG.Add(1)
	defer s.reqWG.Done()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.failf(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.failf(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	var req OptimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.failf(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.MLIR == "" {
		s.failf(w, http.StatusBadRequest, "request has no mlir")
		return
	}
	work, err := s.resolve(&req)
	if err != nil {
		s.failf(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.metrics.requests.Add(1)
	// Per-request observability context: the correlation ID assigned at
	// ingress plus a private span recorder. If this request becomes the
	// singleflight leader, the recorder also collects the engine's spans;
	// either way the flight recorder keeps the last FlightSize of these.
	// Created before the request clock starts so every span timestamp is
	// >= the recorder's epoch.
	ro := &requestObs{id: requestIDFrom(r.Context()), rec: obs.NewRecorder()}
	start := time.Now()
	source := "hit"
	status := http.StatusOK
	ro.rec.SetLabel("request_id", ro.id)
	ro.rec.SetLaneName(obs.LaneServe, "serve")
	defer func() {
		dur := time.Since(start)
		s.metrics.observe(dur)
		cached := int64(map[string]int{"hit": 1, "flight": 2, "miss": 0}[source])
		ro.rec.Complete(obs.LaneServe, "request", work.key[:12], start, dur, map[string]int64{"cached": cached})
		tripped, reason := ro.tripState()
		s.flight.Record(&obs.FlightRecord{
			ID: ro.id, Start: start, Dur: dur, Status: status, Source: source,
			Tripped: tripped, TripReason: reason, Recorder: ro.rec,
		})
	}()

	if val, ok := s.cache.Get(work.key); ok {
		s.metrics.hits.Add(1)
		s.writeResult(w, "hit", val)
		return
	}

	val, src, err := s.optimize(r.Context(), work, ro)
	switch {
	case err == nil:
		source = src
		if source == "miss" {
			s.metrics.misses.Add(1)
		} else {
			s.metrics.hits.Add(1)
		}
		s.writeResult(w, source, val)
	case errors.Is(err, ErrQueueFull):
		source, status = "queue-full", http.StatusServiceUnavailable
		s.metrics.queueFull.Add(1)
		w.Header().Set("Retry-After", "1")
		s.failf(w, http.StatusServiceUnavailable, "optimization queue is full")
	case errors.Is(err, errJobPanic):
		source, status = "panic", http.StatusInternalServerError
		s.failf(w, http.StatusInternalServerError, "optimization failed: %v", err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		source, status = "canceled", statusClientClosedRequest
		s.metrics.canceled.Add(1)
		// Best effort: the client is usually gone.
		writeJSON(w, statusClientClosedRequest, ErrorResponse{Error: "request canceled"})
	default:
		source, status = "error", http.StatusUnprocessableEntity
		s.failf(w, http.StatusUnprocessableEntity, "optimization failed: %v", err)
	}
}

// optimize returns work's result after the request's cache lookup
// missed, joining the flight for its key or leading a new one. A flight
// for the key may have cached its result and left the group between that
// lookup and this call, so a new flight looks in the cache again before
// it saturates. source is "flight" for a result shared with the leading
// request, "hit" when the second lookup found it, and "miss" when this
// request saturated.
func (s *Server) optimize(ctx context.Context, work *workItem, ro *requestObs) (val []byte, source string, err error) {
	cached := false
	val, shared, err := s.group.Do(ctx, work.key, func(fctx context.Context) ([]byte, error) {
		if val, ok := s.cache.Get(work.key); ok {
			cached = true
			return val, nil
		}
		resp, ferr := s.execute(fctx, work, ro)
		if ferr == nil {
			s.cache.Add(work.key, resp)
		}
		return resp, ferr
	})
	switch {
	case err != nil:
	case shared:
		source = "flight"
	case cached:
		source = "hit"
	default:
		source = "miss"
	}
	return val, source, err
}

func (s *Server) writeResult(w http.ResponseWriter, source string, val []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Egg-Cache", source)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(val)
}

// execute submits a job to the worker pool and waits for it. Called on a
// singleflight goroutine with the flight's refcounted context: fctx dies
// only when every request waiting on this computation has gone away, at
// which point the worker (or the queued job) observes it and stops.
func (s *Server) execute(fctx context.Context, work *workItem, ro *requestObs) ([]byte, error) {
	j := &job{ctx: fctx, work: work, obs: ro, done: make(chan struct{})}
	select {
	case s.queue <- j:
		s.queueAges.push(time.Now())
	default:
		return nil, ErrQueueFull
	}
	select {
	case <-j.done:
		return j.resp, j.err
	case <-fctx.Done():
		// Every waiter left; the worker will observe the dead context and
		// skip (queued) or stop (running) the job.
		return nil, fctx.Err()
	}
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
		case <-s.stop:
			// Drain the backlog, then exit. Jobs whose waiters are gone
			// fail their context check inside runJob and cost nothing.
			for {
				select {
				case j := <-s.queue:
					s.runJob(j)
				default:
					return
				}
			}
		}
	}
}

// errJobPanic marks a job whose optimization panicked; the handler answers
// it with 500.
var errJobPanic = errors.New("optimization panicked")

// runJob executes one optimization on a worker goroutine. A panic inside
// the job fails that job alone: it becomes errJobPanic (a 500 and a
// flight record), counts in egg_job_panics_total, and leaves no cache
// entry, because only successful results are cached.
func (s *Server) runJob(j *job) {
	defer close(j.done)
	defer func() {
		if r := recover(); r != nil {
			s.metrics.jobPanics.Add(1)
			s.logger.Error("optimization panicked", "key", j.work.key[:12], "panic", fmt.Sprint(r))
			j.resp, j.err = nil, fmt.Errorf("%w: %v", errJobPanic, r)
		}
	}()
	s.queueAges.pop()
	// Abandoned while queued: every waiter left, don't burn the worker.
	if err := j.ctx.Err(); err != nil {
		j.err = err
		return
	}
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	if s.jobHook != nil {
		s.jobHook(j.work)
	}

	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(j.work.canonical, reg)
	if err != nil {
		// Canonical text came from a successful parse; failing here is a
		// server bug, not a client error.
		j.err = fmt.Errorf("re-parsing canonical module: %w", err)
		return
	}
	cfg := j.work.cfg
	// Observe: the run records its engine spans into the leader's private
	// recorder (labeled with its request ID at ingress) and feeds the live
	// gauges + watchdog through the serve-layer Observer.
	if j.obs != nil {
		cfg.Recorder = j.obs.rec
	}
	cfg.Observer = s.newLiveSink(j.obs)
	cfg.Selectivity = s.cfg.Profile
	opt := dialegg.NewOptimizer(dialegg.Options{
		RuleSources: j.work.rules,
		RunConfig:   cfg,
		Blame:       s.cfg.Profile,
	})
	rep, err := opt.OptimizeModuleCtx(j.ctx, m)
	s.metrics.runs.Add(1)
	if rep != nil && rep.Run.Stop == egraph.StopCanceled {
		s.metrics.stopCanceled.Add(1)
	}
	if j.obs != nil {
		var iters int64
		if rep != nil {
			iters = int64(rep.Run.Iterations)
		}
		j.obs.rec.Complete(obs.LaneServe, "job", j.work.key[:12], start, time.Since(start), map[string]int64{
			"iterations": iters,
		})
	}
	if s.cfg.Profile && rep != nil {
		s.recordProfile(rep, j.obs, time.Since(start))
	}
	if err != nil {
		j.err = err
		return
	}
	out := mlir.PrintModuleCanonical(m, reg)
	resp := OptimizeResponse{
		MLIR: out,
		Key:  j.work.key,
		Stats: OptimizeStats{
			Iterations:     rep.Run.Iterations,
			Nodes:          rep.Run.Nodes,
			Stop:           string(rep.Run.Stop),
			NumRules:       rep.NumRules,
			ExtractCost:    rep.ExtractCost,
			ExtractDAGCost: rep.ExtractDAGCost,
			SaturationNS:   int64(rep.Saturation),
			TotalNS:        int64(rep.Total()),
		},
	}
	j.resp, j.err = json.Marshal(resp)
}
