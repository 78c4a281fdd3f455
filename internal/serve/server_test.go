package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dialegg/internal/obs"
)

// divPow2Module is the §7.2 workload: signed division by a power of two,
// which the imgconv rule set rewrites to an arithmetic right shift.
const divPow2Module = `func.func @scale(%x: i64) -> i64 {
  %c256 = arith.constant 256 : i64
  %r = arith.divsi %x, %c256 : i64
  func.return %r : i64
}
`

// commAssoc makes addi chains explode combinatorially — the slow workload
// the cancellation and backpressure tests use to keep a worker busy.
const commAssoc = `
(rewrite (arith_addi ?a ?b ?t) (arith_addi ?b ?a ?t) :name "addi-comm")
(rewrite (arith_addi (arith_addi ?a ?b ?t) ?c ?t)
         (arith_addi ?a (arith_addi ?b ?c ?t) ?t) :name "addi-assoc")
`

// addChainModule builds a left-leaning chain of n block arguments summed
// with arith.addi. Under commAssoc this has Catalan-number-many
// equivalent shapes, so saturation with generous limits runs far longer
// than any test timeout — unless canceled.
func addChainModule(name string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func.func @%s(", name)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%%x%d: i64", i)
	}
	b.WriteString(") -> i64 {\n")
	fmt.Fprintf(&b, "  %%t1 = arith.addi %%x0, %%x1 : i64\n")
	for i := 2; i < n; i++ {
		fmt.Fprintf(&b, "  %%t%d = arith.addi %%t%d, %%x%d : i64\n", i, i-1, i)
	}
	fmt.Fprintf(&b, "  func.return %%t%d : i64\n}\n", n-1)
	return b.String()
}

// slowRequest is a request whose saturation would take minutes if left to
// run: a 14-term addi chain under commutativity+associativity with limits
// high enough that only cancellation stops it early.
func slowRequest(name string) *OptimizeRequest {
	return &OptimizeRequest{
		MLIR:    addChainModule(name, 14),
		RuleSet: "imgconv",
		Rules:   []string{commAssoc},
		Config:  &RunOptions{IterLimit: 1000, NodeLimit: 100_000_000},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(dctx)
		ts.Close()
	})
	return s, NewClient(ts.URL)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOptimizeSingleflight is the acceptance end-to-end: the same module
// submitted concurrently from 8 clients costs exactly one saturation run,
// every client gets byte-identical response bodies, and the cache hit
// ratio is at least 7/8.
func TestOptimizeSingleflight(t *testing.T) {
	rec := obs.NewRecorder()
	s, c := newTestServer(t, Config{Workers: 2, Recorder: rec})

	const clients = 8
	req := &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		bodies  [clients][]byte
		sources [clients]string
		errs    [clients]error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			bodies[i], sources[i], errs[i] = c.OptimizeRaw(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("client %d body differs from client 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	var resp OptimizeResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !strings.Contains(resp.MLIR, "arith.shrsi") {
		t.Fatalf("optimized module kept the division:\n%s", resp.MLIR)
	}
	if strings.Contains(resp.MLIR, "arith.divsi") {
		t.Fatalf("optimized module still contains divsi:\n%s", resp.MLIR)
	}
	if resp.Key == "" || resp.Stats.Iterations == 0 {
		t.Fatalf("response missing key or stats: %+v", resp)
	}

	st := s.Stats()
	if st.Runs != 1 {
		t.Fatalf("Runs = %d, want 1 (singleflight should dedup %d identical requests)", st.Runs, clients)
	}
	if st.Requests != clients {
		t.Fatalf("Requests = %d, want %d", st.Requests, clients)
	}
	if st.Hits < clients-1 {
		t.Fatalf("Hits = %d, want >= %d (cache hit ratio >= 7/8)", st.Hits, clients-1)
	}
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}

	// A later identical request is a pure cache read.
	_, source, err := c.OptimizeRaw(context.Background(), req)
	if err != nil {
		t.Fatalf("warm request: %v", err)
	}
	if source != "hit" {
		t.Fatalf("warm request source = %q, want %q", source, "hit")
	}
	if got := s.Stats().Cache.Entries; got != 1 {
		t.Fatalf("cache entries = %d, want 1", got)
	}

	// The recorder saw the request and job spans on the serve lane.
	var reqSpans, jobSpans int
	for _, ev := range rec.Events() {
		if ev.Lane != obs.LaneServe {
			continue
		}
		switch ev.Cat {
		case "request":
			reqSpans++
		case "job":
			jobSpans++
		}
	}
	if reqSpans != clients+1 || jobSpans != 1 {
		t.Fatalf("recorder saw %d request / %d job spans, want %d / 1", reqSpans, jobSpans, clients+1)
	}
}

// TestCancelFreesWorker is the acceptance cancellation check: canceling a
// request stops its saturation run (observed as StopCanceled in stats)
// and frees the worker long before the run would have completed, proven
// by a fast request completing promptly on a Workers=1 server.
func TestCancelFreesWorker(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := c.OptimizeRaw(ctx, slowRequest("slow"))
		slowDone <- err
	}()

	// Wait until the job is actually executing (past the queued-abandon
	// check), so the cancel is guaranteed to reach the saturation run.
	waitFor(t, 20*time.Second, "slow job to start", func() bool {
		return s.Stats().Inflight == 1
	})
	cancel()

	if err := <-slowDone; err == nil {
		t.Fatal("canceled request returned no error")
	}
	waitFor(t, 30*time.Second, "engine to report StopCanceled", func() bool {
		return s.Stats().StopCanceled >= 1
	})

	// The single worker must be free again: a fast request completes well
	// before the abandoned saturation (minutes of work) ever would have.
	fctx, fcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer fcancel()
	resp, _, err := c.Optimize(fctx, &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"})
	if err != nil {
		t.Fatalf("fast request after cancel: %v", err)
	}
	if !strings.Contains(resp.MLIR, "arith.shrsi") {
		t.Fatalf("fast request not optimized:\n%s", resp.MLIR)
	}

	st := s.Stats()
	if st.Canceled < 1 {
		t.Fatalf("Canceled = %d, want >= 1", st.Canceled)
	}
	if st.Inflight != 0 {
		t.Fatalf("Inflight = %d, want 0", st.Inflight)
	}
}

// TestQueueBackpressure fills the Workers=1/QueueSize=1 pipeline and
// checks the third distinct request is rejected with 503 + Retry-After
// instead of queueing unboundedly.
func TestQueueBackpressure(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueSize: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 2)
	go func() {
		_, _, err := c.OptimizeRaw(ctx, slowRequest("a"))
		done <- err
	}()
	waitFor(t, 20*time.Second, "first job to start", func() bool {
		return s.Stats().Inflight == 1
	})
	go func() {
		_, _, err := c.OptimizeRaw(ctx, slowRequest("b"))
		done <- err
	}()
	waitFor(t, 20*time.Second, "second job to queue", func() bool {
		return s.Stats().QueueDepth == 1
	})

	_, _, err := c.OptimizeRaw(context.Background(), slowRequest("overflow"))
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("overflow request error = %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, want 503", apiErr.StatusCode)
	}
	if got := s.Stats().QueueFull; got != 1 {
		t.Fatalf("QueueFull = %d, want 1", got)
	}

	cancel()
	<-done
	<-done
}

// TestDrain verifies graceful shutdown: after Drain, health reports
// unavailable and new optimize requests are rejected, while stats still
// serve (and report draining).
func TestDrain(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})

	if _, _, err := c.Optimize(context.Background(), &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}); err != nil {
		t.Fatalf("request before drain: %v", err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health before drain: %v", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	s.Drain(dctx)

	if err := c.Health(context.Background()); err == nil {
		t.Fatal("health after drain succeeded, want unavailable")
	}
	_, _, err := c.OptimizeRaw(context.Background(), &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("optimize after drain = %v, want 503 APIError", err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats after drain: %v", err)
	}
	if !st.Draining {
		t.Fatal("stats do not report draining")
	}
	// Draining twice is safe.
	s.Drain(dctx)
}

// TestBadRequests covers the client-error surface: malformed bodies,
// missing or unparsable MLIR, unknown rule sets, broken rules, and wrong
// methods all fail with the right status and count as errors.
func TestBadRequests(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name string
		req  *OptimizeRequest
		code int
	}{
		{"empty mlir", &OptimizeRequest{}, http.StatusBadRequest},
		{"unparsable mlir", &OptimizeRequest{MLIR: "func.func @broken("}, http.StatusBadRequest},
		{"unknown rule set", &OptimizeRequest{MLIR: divPow2Module, RuleSet: "nope"}, http.StatusBadRequest},
		{"broken rules", &OptimizeRequest{MLIR: divPow2Module, Rules: []string{"(rewrite)"}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		_, _, err := c.OptimizeRaw(context.Background(), tc.req)
		apiErr, ok := err.(*APIError)
		if !ok {
			t.Fatalf("%s: error = %v, want *APIError", tc.name, err)
		}
		if apiErr.StatusCode != tc.code {
			t.Fatalf("%s: status = %d, want %d", tc.name, apiErr.StatusCode, tc.code)
		}
	}

	resp, err := http.Get(c.BaseURL + "/optimize")
	if err != nil {
		t.Fatalf("GET /optimize: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /optimize status = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(c.BaseURL+"/optimize", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST bad json: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status = %d, want 400", resp.StatusCode)
	}

	if got := s.Stats().Errors; got != uint64(len(cases))+2 {
		t.Fatalf("Errors = %d, want %d", got, len(cases)+2)
	}
}

// TestRunOptionsAffectKeyAndResult checks request config reaches the
// engine (an IterLimit:1 run stops at the iteration limit) and that
// different configs are cached under different keys.
func TestRunOptionsAffectKeyAndResult(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})

	limited := &OptimizeRequest{
		MLIR:    divPow2Module,
		RuleSet: "imgconv",
		Config:  &RunOptions{IterLimit: 1},
	}
	resp1, _, err := c.Optimize(context.Background(), limited)
	if err != nil {
		t.Fatalf("limited request: %v", err)
	}
	if resp1.Stats.Iterations > 1 {
		t.Fatalf("IterLimit 1 ran %d iterations", resp1.Stats.Iterations)
	}

	resp2, _, err := c.Optimize(context.Background(), &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"})
	if err != nil {
		t.Fatalf("default request: %v", err)
	}
	if resp1.Key == resp2.Key {
		t.Fatal("different run configs produced the same cache key")
	}
	if got := s.Stats().Runs; got != 2 {
		t.Fatalf("Runs = %d, want 2 (configs must not share cache entries)", got)
	}
}

// TestStatz checks the stats endpoint returns live gauges and latency
// quantiles after traffic.
func TestStatz(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 3, QueueSize: 7})

	if _, _, err := c.Optimize(context.Background(), &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}); err != nil {
		t.Fatalf("request: %v", err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Workers != 3 || st.QueueCap != 7 {
		t.Fatalf("workers/queue = %d/%d, want 3/7", st.Workers, st.QueueCap)
	}
	if st.Requests != 1 || st.Runs != 1 {
		t.Fatalf("requests/runs = %d/%d, want 1/1", st.Requests, st.Runs)
	}
	if st.LatencyP50MS <= 0 || st.LatencyP99MS < st.LatencyP50MS {
		t.Fatalf("latency quantiles p50=%v p99=%v look wrong", st.LatencyP50MS, st.LatencyP99MS)
	}
	if st.Cache.Bytes <= 0 {
		t.Fatalf("cache bytes = %d, want > 0", st.Cache.Bytes)
	}
	_ = s
}

// TestJobPanicIsolated: a panic inside one job answers that request with
// 500, counts in egg_job_panics_total, leaves a flight record, caches
// nothing, and the pool goes on serving the next request.
func TestJobPanicIsolated(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	s.jobHook = func(w *workItem) {
		if strings.Contains(w.canonical, "@boom") {
			panic("injected failure")
		}
	}
	boom := &OptimizeRequest{MLIR: strings.Replace(divPow2Module, "@scale", "@boom", 1), RuleSet: "imgconv"}
	for i := 0; i < 2; i++ {
		resp, body, _ := postOptimize(t, c.BaseURL, boom, "")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking job #%d: status %d, want 500: %s", i, resp.StatusCode, body)
		}
	}
	if st := s.Stats(); st.Cache.Entries != 0 || st.Runs != 0 {
		t.Fatalf("panicking jobs left %d cache entries and %d runs, want none", st.Cache.Entries, st.Runs)
	}
	var panicked int
	for _, fr := range s.flight.Records() {
		if fr.Status == http.StatusInternalServerError && fr.Source == "panic" {
			panicked++
		}
	}
	if panicked != 2 {
		t.Errorf("flight recorder holds %d panic records, want 2", panicked)
	}

	body, source, err := c.OptimizeRaw(context.Background(), &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"})
	if err != nil || source != "miss" {
		t.Fatalf("request after the panics: cache=%q err=%v", source, err)
	}
	if !strings.Contains(string(body), "arith.shrsi") {
		t.Fatalf("request after the panics was not optimized: %s", body)
	}
	_, _, metrics := httpGet(t, c.BaseURL+"/metrics")
	if got := metricValue(t, metrics, "egg_job_panics_total"); got != 2 {
		t.Errorf("egg_job_panics_total = %v, want 2", got)
	}
}
