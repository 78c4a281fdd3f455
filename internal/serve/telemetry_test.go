package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dialegg/internal/obs"
	"dialegg/internal/obs/telemetry"
)

// syncBuf is a goroutine-safe log sink for asserting on slog output.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// testLogger returns a JSON slog logger writing into a syncBuf.
func testLogger() (*slog.Logger, *syncBuf) {
	buf := &syncBuf{}
	return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug})), buf
}

func httpGet(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// postOptimize fires one optimize request with optional inbound request
// ID and returns the response plus the correlation ID the server echoed.
func postOptimize(t *testing.T, baseURL string, req *OptimizeRequest, inboundID string) (*http.Response, []byte, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, baseURL+"/optimize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if inboundID != "" {
		hreq.Header.Set("X-Request-Id", inboundID)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out, resp.Header.Get("X-Request-Id")
}

// metricValue extracts an unlabeled sample's value from an exposition.
func metricValue(t *testing.T, exposition []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample for %s in exposition", name)
	return 0
}

// TestMetricsEndpoint drives real traffic, scrapes /metrics, and holds
// the exposition to the Prometheus text-format invariants with the same
// linter egg-lint uses — the live-scrape gate the CI smoke also runs.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}
	if _, _, err := c.Optimize(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, cache, err := c.Optimize(ctx, req); err != nil || cache != "hit" {
		t.Fatalf("second request: cache=%q err=%v", cache, err)
	}

	code, hdr, body := httpGet(t, c.BaseURL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain with version=0.0.4", ct)
	}
	samples, err := telemetry.Lint(body)
	if err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("exposition has no samples")
	}

	for _, name := range []string{
		"egg_requests_total", "egg_cache_hits_total", "egg_cache_misses_total",
		"egg_runs_total", "egg_inflight", "egg_queue_depth", "egg_queue_age_seconds",
		"egg_memo_bytes", "egg_memo_hits_total", "egg_uptime_seconds",
		"egg_watchdog_trips_total", "egg_engine_nodes", "egg_engine_classes",
		"egg_flight_records",
	} {
		if !regexp.MustCompile(`(?m)^` + name + `[ {]`).Match(body) {
			t.Errorf("exposition missing %s", name)
		}
	}
	if !bytes.Contains(body, []byte("egg_request_duration_seconds_bucket{le=")) {
		t.Error("exposition missing latency histogram buckets")
	}
	if !bytes.Contains(body, []byte(`egg_build_info{goversion=`)) {
		t.Error("exposition missing egg_build_info")
	}
	if !bytes.Contains(body, []byte(`egg_rule_matched_total{rule=`)) {
		t.Error("exposition missing per-rule matched counters")
	}
	if got := metricValue(t, body, "egg_requests_total"); got != 2 {
		t.Errorf("egg_requests_total = %v, want 2", got)
	}
	if got := metricValue(t, body, "egg_request_duration_seconds_count"); got != 2 {
		t.Errorf("latency histogram count = %v, want 2", got)
	}
	// One request ran, one hit the cache.
	if got := metricValue(t, body, "egg_cache_hits_total"); got != 1 {
		t.Errorf("egg_cache_hits_total = %v, want 1", got)
	}
	if got := metricValue(t, body, "egg_engine_iteration"); got <= 0 {
		t.Errorf("egg_engine_iteration = %v, want > 0 after a run", got)
	}
}

// TestBuildz: build metadata endpoint serves JSON with the running Go
// version and a live uptime.
func TestBuildz(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	code, _, body := httpGet(t, c.BaseURL+"/buildz")
	if code != http.StatusOK {
		t.Fatalf("GET /buildz: %d", code)
	}
	var got struct {
		GoVersion     string  `json:"go_version"`
		Path          string  `json:"path"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding /buildz: %v\n%s", err, body)
	}
	if !strings.HasPrefix(got.GoVersion, "go") {
		t.Errorf("go_version = %q", got.GoVersion)
	}
	if got.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", got.UptimeSeconds)
	}
}

// TestRequestIDPropagation: one correlation key, end to end — the echoed
// header, the structured log line, the flight-recorder listing, and every
// span in the flight trace all carry the inbound X-Request-Id.
func TestRequestIDPropagation(t *testing.T) {
	logger, logs := testLogger()
	s, c := newTestServer(t, Config{Workers: 1, Logger: logger})
	const inbound = "corr-key-e2e-test"

	resp, _, echoed := postOptimize(t, c.BaseURL,
		&OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}, inbound)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d", resp.StatusCode)
	}
	if echoed != inbound {
		t.Fatalf("X-Request-Id echoed %q, want %q", echoed, inbound)
	}

	// Structured request log carries the ID.
	if !strings.Contains(logs.String(), `"request_id":"`+inbound+`"`) {
		t.Errorf("request log missing request_id %q:\n%s", inbound, logs.String())
	}

	// Flight listing has the record.
	_, _, listing := httpGet(t, c.BaseURL+"/debugz/flightz")
	var list struct {
		Records []flightSummary `json:"records"`
	}
	if err := json.Unmarshal(listing, &list); err != nil {
		t.Fatal(err)
	}
	var found *flightSummary
	for i := range list.Records {
		if list.Records[i].ID == inbound {
			found = &list.Records[i]
		}
	}
	if found == nil {
		t.Fatalf("flight listing has no record for %q: %s", inbound, listing)
	}
	if found.Source != "miss" || found.Status != http.StatusOK {
		t.Errorf("flight record = %+v, want source=miss status=200", found)
	}

	// The per-request trace is valid Chrome trace JSON and labeled with
	// the ID (as is the in-memory record's recorder).
	code, _, trace := httpGet(t, c.BaseURL+"/debugz/flightz?id="+inbound)
	if code != http.StatusOK {
		t.Fatalf("GET flight trace: %d", code)
	}
	if _, err := obs.ValidateTrace(trace); err != nil {
		t.Fatalf("flight trace invalid: %v", err)
	}
	if !bytes.Contains(trace, []byte(inbound)) {
		t.Error("flight trace does not carry the request ID")
	}
	fr := s.flight.Get(inbound)
	if fr == nil {
		t.Fatal("flight recorder lost the record")
	}
	if got := fr.Recorder.Labels()["request_id"]; got != inbound {
		t.Errorf("recorder label = %q", got)
	}

	// Unknown IDs 404.
	code, _, _ = httpGet(t, c.BaseURL+"/debugz/flightz?id=no-such-request")
	if code != http.StatusNotFound {
		t.Errorf("unknown flight id: %d, want 404", code)
	}
}

// TestRequestIDGenerated: requests without an inbound ID get a fresh
// 16-hex one at ingress.
func TestRequestIDGenerated(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	resp, _, id := postOptimize(t, c.BaseURL,
		&OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d", resp.StatusCode)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated request ID %q, want 16 hex digits", id)
	}
}

// TestSlowRequestLog: requests over the slow threshold log at Warn and
// count egg_slow_requests_total.
func TestSlowRequestLog(t *testing.T) {
	logger, logs := testLogger()
	_, c := newTestServer(t, Config{Workers: 1, Logger: logger, SlowThreshold: time.Nanosecond})
	if _, _, err := c.Optimize(context.Background(), &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), `"slow request"`) {
		t.Fatalf("no slow-request warning in logs:\n%s", logs.String())
	}
	_, _, body := httpGet(t, c.BaseURL+"/metrics")
	if got := metricValue(t, body, "egg_slow_requests_total"); got < 1 {
		t.Errorf("egg_slow_requests_total = %v, want >= 1", got)
	}
}

// TestFlightRecorderRetention: the ring keeps hits and misses alike,
// bounded by FlightSize, evicting oldest-first.
func TestFlightRecorderRetention(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, FlightSize: 2})
	for i := 0; i < 3; i++ {
		resp, _, _ := postOptimize(t, c.BaseURL,
			&OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}, fmt.Sprintf("ring-req-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d", i, resp.StatusCode)
		}
	}
	if s.flight.Len() != 2 || s.flight.Total() != 3 {
		t.Fatalf("flight ring len=%d total=%d, want 2/3", s.flight.Len(), s.flight.Total())
	}
	recs := s.flight.Records()
	if recs[0].ID != "ring-req-1" || recs[1].ID != "ring-req-2" {
		t.Fatalf("ring kept %q/%q, want the newest two", recs[0].ID, recs[1].ID)
	}
	if recs[0].Source != "hit" {
		t.Errorf("second request source = %q, want hit", recs[0].Source)
	}
}
