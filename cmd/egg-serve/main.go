// Command egg-serve is the optimization-as-a-service daemon: it exposes
// the DialEgg pipeline over an HTTP JSON API (internal/serve), backed by
// a bounded worker pool with queue backpressure, a content-addressed
// result cache with singleflight deduplication, and per-request
// cancellation threaded down to the saturation loop.
//
// Usage:
//
//	egg-serve -addr :8080 -rules imgconv
//	curl -s localhost:8080/optimize -d '{"mlir":"...", "rule_set":"imgconv"}'
//
// Endpoints: POST /optimize (MLIR + rules in, optimized MLIR + stats
// out), GET /healthz (503 while draining), GET /statz (service counters,
// latency quantiles, cache accounting), GET /metrics (Prometheus text
// exposition), GET /buildz (build metadata + uptime), GET
// /debugz/flightz (always-on flight recorder: last N requests; ?id=
// dumps one request's span tree as a Chrome trace), GET /debugz/profilez
// (with -profile: the live aggregate saturation profile — per-rule
// cost/benefit counters and extraction blame in the egg-prof artifact
// schema, plus links from recent slow requests to their flight traces).
//
// Every request carries a correlation ID: an inbound X-Request-Id is
// honored, otherwise one is generated at ingress; the ID is echoed on
// the response and stamped on log lines, trace spans, and journal
// events. Structured request logs go to stderr (-log text|json|off);
// requests slower than -slow-ms log at Warn. The engine health watchdog
// (-watchdog-growth, -watchdog-window, -watchdog-mem-mb) flags
// saturation explosions into egg_watchdog_trips_total and the flight
// recorder.
//
// SIGINT/SIGTERM trigger a graceful drain: new requests are rejected
// with 503 while in-flight requests finish (bounded by -drain-timeout);
// with -stats-json the final counters are written on the way out.
//
// -smoke runs a self-contained exercise against an ephemeral port —
// start, optimize twice (miss then cache hit), verify, drain — and
// exits; CI uses it as the serving smoke test. -metrics-smoke does the
// same for the telemetry plane: it fires normal and watchdog-tripping
// traffic, scrapes /metrics, /buildz, /debugz/flightz, and
// /debugz/profilez, writes the exposition, the tripped request's flight
// trace, and the live profile artifact to -smoke-dir, and exits nonzero
// if any check fails (CI lints the written artifacts).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dialegg/internal/obs"
	"dialegg/internal/obs/profile"
	"dialegg/internal/obs/telemetry"
	"dialegg/internal/rules"
	"dialegg/internal/sched"
	"dialegg/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "optimization worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue capacity before 503 backpressure (0 = default 64)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache budget in bytes (0 = default 64 MiB, negative disables)")
	ruleSet := flag.String("rules", "", "default bundled rule set for requests that carry no rules: imgconv, vecnorm, poly, or matmul")
	satWorkers := flag.Int("sat-workers", 0, "match-phase workers inside each job (0 = serial; the service parallelizes across requests)")
	statsJSON := flag.String("stats-json", "", "write final service stats as JSON to this file on shutdown")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	smoke := flag.Bool("smoke", false, "run the self-contained smoke exercise on an ephemeral port and exit")
	metricsSmoke := flag.Bool("metrics-smoke", false, "run the telemetry-plane smoke exercise and exit")
	smokeDir := flag.String("smoke-dir", ".", "directory -metrics-smoke writes its artifacts (metrics.txt, flight.trace.json) into")
	logMode := flag.String("log", "text", "structured request logs to stderr: text, json, or off")
	slowMS := flag.Int("slow-ms", 2000, "log requests slower than this many milliseconds at Warn (0 disables)")
	flightSize := flag.Int("flight", 32, "flight recorder ring size in requests (negative disables)")
	wdGrowth := flag.Float64("watchdog-growth", 0, "watchdog node-growth ratio considered explosive (0 = default 2.0)")
	wdWindow := flag.Int("watchdog-window", 0, "consecutive explosive iterations before the watchdog trips (0 = default 3)")
	wdMemMB := flag.Int("watchdog-mem-mb", 0, "also trip the watchdog above this heap watermark in MiB (0 disables)")
	noWatchdog := flag.Bool("no-watchdog", false, "disable the engine health watchdog")
	profileFlag := flag.Bool("profile", false, "aggregate a live saturation profile (per-rule cost/benefit + blame) served at /debugz/profilez; adds an extraction blame walk per run")
	profileSample := flag.Int("profile-sample", 0, "sample every Nth match root for premise-selectivity statistics in the live profile (0 = off; needs -profile)")
	schedule := flag.String("schedule", "", "load a tuned dialegg-schedule/v2 artifact (egg-tune output); requests resolve their rule set's entry")
	flag.Parse()

	logger, err := buildLogger(*logMode)
	if err == nil {
		var defaultRules []string
		defaultRules, err = rules.Bundle(*ruleSet)
		if err == nil {
			cfg := serve.Config{
				Workers:       *workers,
				QueueSize:     *queue,
				CacheBytes:    *cacheBytes,
				DefaultRules:  defaultRules,
				SatWorkers:    *satWorkers,
				Logger:        logger,
				SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
				FlightSize:    *flightSize,
				Watchdog: serve.WatchdogConfig{
					Disabled:     *noWatchdog,
					GrowthFactor: *wdGrowth,
					GrowthWindow: *wdWindow,
					MemBytes:     uint64(*wdMemMB) << 20,
				},
				Profile:       *profileFlag,
				ProfileSample: *profileSample,
			}
			if *schedule != "" {
				cfg.Schedule, err = sched.ReadArtifact(*schedule)
			}
			switch {
			case err != nil:
			case *metricsSmoke:
				err = runMetricsSmoke(cfg, *smokeDir, *drainTimeout)
			case *smoke:
				err = runSmoke(cfg, *drainTimeout)
			default:
				err = run(cfg, *addr, *statsJSON, *drainTimeout)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "egg-serve:", err)
		os.Exit(1)
	}
}

// buildLogger maps -log to a slog logger on stderr (nil = serve default,
// which discards).
func buildLogger(mode string) (*slog.Logger, error) {
	switch mode {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -log mode %q (want text, json, or off)", mode)
	}
}

// run serves until SIGINT/SIGTERM, then drains gracefully.
func run(cfg serve.Config, addr, statsJSON string, drainTimeout time.Duration) error {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// Install the signal handler before announcing the address: clients
	// treat the announcement as "ready", and a SIGTERM that lands before
	// NotifyContext would kill the process with no graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "egg-serve: listening on %s\n", ln.Addr())
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "egg-serve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	s.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if statsJSON != "" {
		if err := obs.WriteJSONFile(statsJSON, s.Stats()); err != nil {
			return fmt.Errorf("writing stats: %w", err)
		}
	}
	fmt.Fprintln(os.Stderr, "egg-serve: stopped")
	return nil
}

// smokeModule is the §7.2 division-by-power-of-two workload the smoke
// exercise optimizes (inline so -smoke works from any directory).
const smokeModule = `func.func @scale(%x: i64) -> i64 {
  %c256 = arith.constant 256 : i64
  %r = arith.divsi %x, %c256 : i64
  func.return %r : i64
}
`

// runSmoke starts the service on an ephemeral port and exercises the
// full request surface once: health, a cold optimize (cache miss), a
// warm identical optimize (cache hit), stats consistency, and drain.
func runSmoke(cfg serve.Config, drainTimeout time.Duration) error {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	c := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("smoke: health: %w", err)
	}
	req := &serve.OptimizeRequest{MLIR: smokeModule, RuleSet: "imgconv"}
	resp, source, err := c.Optimize(ctx, req)
	if err != nil {
		return fmt.Errorf("smoke: cold optimize: %w", err)
	}
	if !strings.Contains(resp.MLIR, "arith.shrsi") || strings.Contains(resp.MLIR, "arith.divsi") {
		return fmt.Errorf("smoke: division not rewritten:\n%s", resp.MLIR)
	}
	if source != "miss" {
		return fmt.Errorf("smoke: cold optimize source = %q, want miss", source)
	}
	if _, source, err = c.Optimize(ctx, req); err != nil {
		return fmt.Errorf("smoke: warm optimize: %w", err)
	}
	if source != "hit" {
		return fmt.Errorf("smoke: warm optimize source = %q, want hit", source)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("smoke: stats: %w", err)
	}
	if st.Runs != 1 || st.Hits != 1 || st.Misses != 1 {
		return fmt.Errorf("smoke: stats runs/hits/misses = %d/%d/%d, want 1/1/1", st.Runs, st.Hits, st.Misses)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), drainTimeout)
	defer dcancel()
	s.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("smoke: shutdown: %w", err)
	}
	fmt.Println("serve-smoke: OK (miss -> hit, 1 saturation run)")
	return nil
}

// commAssocRules makes addi chains explode combinatorially — the
// watchdog-tripping workload of the metrics smoke.
const commAssocRules = `
(rewrite (arith_addi ?a ?b ?t) (arith_addi ?b ?a ?t) :name "addi-comm")
(rewrite (arith_addi (arith_addi ?a ?b ?t) ?c ?t)
         (arith_addi ?a (arith_addi ?b ?c ?t) ?t) :name "addi-assoc")
`

// chainModule builds an n-argument addi chain (Catalan-many equivalent
// shapes under commAssocRules).
func chainModule(n int) string {
	var b strings.Builder
	b.WriteString("func.func @boom(")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%%x%d: i64", i)
	}
	b.WriteString(") -> i64 {\n  %t1 = arith.addi %x0, %x1 : i64\n")
	for i := 2; i < n; i++ {
		fmt.Fprintf(&b, "  %%t%d = arith.addi %%t%d, %%x%d : i64\n", i, i-1, i)
	}
	fmt.Fprintf(&b, "  func.return %%t%d : i64\n}\n", n-1)
	return b.String()
}

// smokeGet fetches a URL with an optional X-Request-Id.
func smokeGet(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// runMetricsSmoke exercises the telemetry plane end to end: normal and
// watchdog-tripping traffic, then /metrics, /buildz, and /debugz/flightz
// checks. The raw exposition and the tripped request's flight trace are
// written into dir so the CI pipeline can re-lint them with egg-lint.
func runMetricsSmoke(cfg serve.Config, dir string, drainTimeout time.Duration) error {
	// Deterministic trip thresholds: the chain workload at least doubles
	// every early iteration, so 2 consecutive >=1.5x iterations always fire.
	cfg.Watchdog = serve.WatchdogConfig{GrowthFactor: 1.5, GrowthWindow: 2}
	// Exercise the whole profiler plane: every job profiles with sampled
	// selectivity, and a 1ns slow threshold guarantees each executed job
	// links into the profile's slow-request section.
	cfg.Profile = true
	cfg.ProfileSample = 2
	cfg.SlowThreshold = time.Nanosecond
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	c := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Traffic: miss, hit, then the explosion.
	req := &serve.OptimizeRequest{MLIR: smokeModule, RuleSet: "imgconv"}
	if _, source, err := c.Optimize(ctx, req); err != nil || source != "miss" {
		return fmt.Errorf("metrics-smoke: cold optimize (source=%q): %w", source, err)
	}
	if _, source, err := c.Optimize(ctx, req); err != nil || source != "hit" {
		return fmt.Errorf("metrics-smoke: warm optimize (source=%q): %w", source, err)
	}
	boom := &serve.OptimizeRequest{
		MLIR:    chainModule(10),
		RuleSet: "imgconv",
		Rules:   []string{commAssocRules},
		Config:  &serve.RunOptions{IterLimit: 6, NodeLimit: 300_000},
	}
	body, _ := json.Marshal(boom)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/optimize", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	const boomID = "metrics-smoke-boom"
	hreq.Header.Set("X-Request-Id", boomID)
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return fmt.Errorf("metrics-smoke: explosive optimize: %w", err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics-smoke: explosive optimize: status %d", hresp.StatusCode)
	}
	if got := hresp.Header.Get("X-Request-Id"); got != boomID {
		return fmt.Errorf("metrics-smoke: X-Request-Id echoed %q, want %q", got, boomID)
	}

	// Scrape and lint /metrics; persist the exposition for the CLI gate.
	exposition, code, err := smokeGet(ctx, base+"/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics-smoke: GET /metrics (status %d): %w", code, err)
	}
	samples, err := telemetry.Lint(exposition)
	if err != nil {
		return fmt.Errorf("metrics-smoke: exposition fails lint: %w", err)
	}
	if !strings.Contains(string(exposition), "egg_watchdog_trips_total 1") {
		return fmt.Errorf("metrics-smoke: watchdog did not trip exactly once:\n%s", exposition)
	}
	metricsPath := filepath.Join(dir, "metrics.txt")
	if err := os.WriteFile(metricsPath, exposition, 0o644); err != nil {
		return err
	}

	// /buildz parses and reports a Go version.
	buildz, code, err := smokeGet(ctx, base+"/buildz")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics-smoke: GET /buildz (status %d): %w", code, err)
	}
	var bi struct {
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal(buildz, &bi); err != nil || !strings.HasPrefix(bi.GoVersion, "go") {
		return fmt.Errorf("metrics-smoke: bad /buildz payload %s: %w", buildz, err)
	}

	// The flight recorder holds the tripped request; its trace validates
	// and is persisted for the CLI gate.
	listing, code, err := smokeGet(ctx, base+"/debugz/flightz")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics-smoke: GET /debugz/flightz (status %d): %w", code, err)
	}
	var flights struct {
		Records []struct {
			ID         string `json:"id"`
			Tripped    bool   `json:"tripped"`
			TripReason string `json:"trip_reason"`
		} `json:"records"`
	}
	if err := json.Unmarshal(listing, &flights); err != nil {
		return fmt.Errorf("metrics-smoke: decoding flight listing: %w", err)
	}
	var tripped bool
	for _, r := range flights.Records {
		if r.ID == boomID && r.Tripped && strings.HasPrefix(r.TripReason, "growth-rate") {
			tripped = true
		}
	}
	if !tripped {
		return fmt.Errorf("metrics-smoke: flight listing does not flag %s: %s", boomID, listing)
	}
	trace, code, err := smokeGet(ctx, base+"/debugz/flightz?id="+boomID)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics-smoke: GET flight trace (status %d): %w", code, err)
	}
	events, err := obs.ValidateTrace(trace)
	if err != nil {
		return fmt.Errorf("metrics-smoke: flight trace invalid: %w", err)
	}
	if !strings.Contains(string(trace), boomID) {
		return fmt.Errorf("metrics-smoke: flight trace does not carry the request ID")
	}
	tracePath := filepath.Join(dir, "flight.trace.json")
	if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
		return err
	}

	// The live aggregate profile lints against the artifact schema, links
	// its slow requests back to resolvable flight records, and is
	// persisted for the CLI gate (egg-lint re-validates it).
	profilez, code, err := smokeGet(ctx, base+"/debugz/profilez")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics-smoke: GET /debugz/profilez (status %d): %w", code, err)
	}
	var pz struct {
		Profile      profile.Profile `json:"profile"`
		SlowRequests []struct {
			ID      string `json:"id"`
			Flightz string `json:"flightz"`
		} `json:"slow_requests"`
	}
	if err := json.Unmarshal(profilez, &pz); err != nil {
		return fmt.Errorf("metrics-smoke: decoding profilez: %w", err)
	}
	if err := pz.Profile.Lint(); err != nil {
		return fmt.Errorf("metrics-smoke: live profile fails lint: %w", err)
	}
	if pz.Profile.Runs == 0 || len(pz.Profile.Rules) == 0 || len(pz.Profile.Blame) == 0 || len(pz.Profile.Selectivity) == 0 {
		return fmt.Errorf("metrics-smoke: live profile missing sections: %s", profilez)
	}
	if len(pz.SlowRequests) == 0 {
		return fmt.Errorf("metrics-smoke: profilez has no slow-request links despite 1ns threshold")
	}
	for _, sr := range pz.SlowRequests {
		if _, code, err := smokeGet(ctx, base+sr.Flightz); err != nil || code != http.StatusOK {
			return fmt.Errorf("metrics-smoke: slow-request link %s unresolvable (status %d): %w", sr.Flightz, code, err)
		}
	}
	profilePath := filepath.Join(dir, "profile.json")
	if err := pz.Profile.Write(profilePath); err != nil {
		return err
	}

	dctx, dcancel := context.WithTimeout(context.Background(), drainTimeout)
	defer dcancel()
	s.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("metrics-smoke: shutdown: %w", err)
	}
	fmt.Printf("metrics-smoke: OK (%d samples -> %s, 1 watchdog trip, %d-event flight trace -> %s, %d-rule profile -> %s)\n",
		samples, metricsPath, events, tracePath, len(pz.Profile.Rules), profilePath)
	return nil
}
