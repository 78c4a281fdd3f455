package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/difftest"
	"dialegg/internal/egraph"
	"dialegg/internal/genmod"
	"dialegg/internal/interp"
	"dialegg/internal/memo"
	"dialegg/internal/mlir"
	"dialegg/internal/obs"
	"dialegg/internal/serve"
)

// serveBundles are the difftest bundles serve-mix modules rotate through.
// Each request carries its bundle's rules inline, so the server optimizes
// with exactly the rules difftest checks (imgconv's bundle uses the sound
// division rule, not the bundled rule set's §7.2 rule). The vecnorm bundle
// is left out: difftest rejects about one in ten of its 4x30-op modules,
// and the benchmark's inputs must all pass.
var serveBundles = []string{"imgconv", "poly", "matmul", "mixed"}

// mod is one generated serve-mix module with its request body and the
// content address the server must report for it.
type mod struct {
	bundle    difftest.Bundle
	src       string
	canonical string
	body      []byte
	key       string
	hot       bool
	// want is the expected optimized module, computed in process for the
	// hot set and the checked sample; empty for other modules.
	want string
}

// mixInputs is everything serve-mix generates from its seed before any
// timing starts.
type mixInputs struct {
	hot, fresh []*mod
	sample     []*mod // fresh modules whose outputs are checked in full
	plan       []*mod // request i sends plan[i]
	canonMS    []float64
}

// hotSetSeed draws the hot set, which is the same for every run: popular
// modules stay popular, and the cycle-model speedup measured on them
// repeats exactly. The run's seed draws the fresh modules, the checked
// sample, and which hot module each hit asks for.
const hotSetSeed = 0

// genMixInputs generates n requests: even ones from the hot set, odd ones
// each a fresh module. Keys are checked to be distinct, so a fresh
// module is always a miss.
func genMixInputs(cfg runConfig, n int) (*mixInputs, error) {
	in := &mixInputs{}
	seen := make(map[string]bool)
	gen := func(rng *rand.Rand, i int, hot bool) (*mod, error) {
		b, err := difftest.BundleFor(serveBundles[i%len(serveBundles)])
		if err != nil {
			return nil, err
		}
		for {
			var src strings.Builder
			for f := 0; f < cfg.funcs; f++ {
				src.WriteString(genmod.Generate(genmod.Config{Seed: rng.Int63(), Ops: cfg.ops,
					Profile: b.Profile, FuncName: fmt.Sprintf("f%d", f)}))
			}
			t0 := time.Now()
			canon, err := memo.CanonicalizeMLIR(src.String())
			if err != nil {
				return nil, fmt.Errorf("generated module does not parse: %w", err)
			}
			key := memo.Key(canon, b.Rules, egraph.RunConfig{})
			in.canonMS = append(in.canonMS, ms(time.Since(t0)))
			if seen[key] {
				continue
			}
			seen[key] = true
			body, err := json.Marshal(serve.OptimizeRequest{MLIR: src.String(), Rules: b.Rules})
			if err != nil {
				return nil, err
			}
			return &mod{bundle: b, src: src.String(), canonical: canon, body: body, key: key, hot: hot}, nil
		}
	}
	hotRng, rng := rand.New(rand.NewSource(hotSetSeed)), rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < cfg.hot; i++ {
		m, err := gen(hotRng, i, true)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, m)
	}
	for i := 0; i < n/2; i++ {
		m, err := gen(rng, i, false)
		if err != nil {
			return nil, err
		}
		in.fresh = append(in.fresh, m)
	}
	for _, i := range rng.Perm(len(in.fresh))[:min(cfg.sample, len(in.fresh))] {
		in.sample = append(in.sample, in.fresh[i])
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			in.plan = append(in.plan, in.hot[rng.Intn(len(in.hot))])
		} else {
			in.plan = append(in.plan, in.fresh[i/2])
		}
	}
	return in, nil
}

// server is one serve.Server behind a loopback HTTP server, with the
// client the load generator uses and the warm-up responses of the hot set.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	warm   map[*mod][]byte
}

// startServer starts a server with the service's defaults and two
// workers, and warms its cache with the hot set.
func startServer(hot []*mod, rec *obs.Recorder) (*server, error) {
	srv := serve.New(serve.Config{Workers: 2})
	h := srv.Handler()
	if rec != nil {
		h = handlerSpans(rec, h)
	}
	s := &server{
		srv: srv,
		ts:  httptest.NewServer(h),
		// At most nproc (2) connections, like one client process on the
		// benchmark machine; requests due while both are busy wait.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		warm:   make(map[*mod][]byte),
	}
	for _, m := range hot {
		status, source, body, err := s.post(m.body, nil)
		if err != nil || status != http.StatusOK || source != "miss" {
			s.close()
			return nil, fmt.Errorf("warming the cache: status %d, X-Egg-Cache %q, error %v", status, source, err)
		}
		s.warm[m] = body
	}
	return s, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Drain(context.Background())
}

func (s *server) post(body []byte, trace *httptrace.ClientTrace) (int, string, []byte, error) {
	ctx := context.Background()
	if trace != nil {
		ctx = httptrace.WithClientTrace(ctx, trace)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/optimize", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := s.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	return res.StatusCode, res.Header.Get("X-Egg-Cache"), data, err
}

func (s *server) stats() (*serve.ServerStats, error) {
	c := serve.NewClient(s.ts.URL)
	c.HTTPClient = s.client
	return c.Stats(context.Background())
}

// handlerSpans records the time the service's handler takes for each
// request, named by the cache disposition it answered with.
func handlerSpans(rec *obs.Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.Complete(obs.LaneServe, "handler", "serve.handler."+w.Header().Get("X-Egg-Cache"), start, time.Since(start), nil)
	})
}

// reqRecord is one open-loop request as the client saw it.
type reqRecord struct {
	m        *mod
	late     time.Duration // send time minus due time
	connWait time.Duration // send time to connection in hand (traced runs)
	lat      time.Duration // completion minus due time
	speed    float64       // scales lat to the reference speed
	status   int
	source   string
	// body is kept for misses; a hit's body is compared with the warm-up
	// response on arrival, with the verdict in hitOK.
	body  []byte
	hitOK bool
	err   error
}

// openLoop sends plan[i] at start + i/rate whether or not earlier requests
// have finished, and times each from when it was due, so a stall also
// counts against the requests queued behind it.
func openLoop(s *server, plan []*mod, rate float64, rec *obs.Recorder) []reqRecord {
	recs := make([]reqRecord, len(plan))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(interval)
	var wg sync.WaitGroup
	for i, m := range plan {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(rr *reqRecord, m *mod, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			rr.m, rr.late = m, sent.Sub(due)
			var ct *httptrace.ClientTrace
			if rec != nil {
				ct = &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { rr.connWait = time.Since(sent) }}
			}
			var body []byte
			rr.status, rr.source, body, rr.err = s.post(m.body, ct)
			rr.lat = time.Since(due)
			if m.hot {
				rr.hitOK = bytes.Equal(body, s.warm[m])
			} else {
				rr.body = body
			}
		}(&recs[i], m, due)
	}
	wg.Wait()
	return recs
}

func runServeMix(cfg runConfig) (*result, error) {
	r := &result{}
	loopSecs := cfg.seconds
	if cfg.rec != nil {
		// Traced runs split their time between the served load and traced
		// in-process compiles of the checked sample.
		loopSecs /= 2
	}
	// A machine faster than the reference speed takes more requests in
	// loopSecs; a quarter more than the reference rate covers it.
	in, err := genMixInputs(cfg, int(1.25*cfg.rate*loopSecs))
	if err != nil {
		return nil, err
	}

	s, setupS, err := timedSetup(cfg.setups, func() (*server, error) { return startServer(in.hot, cfg.rec) }, (*server).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	checked := append(append([]*mod(nil), in.hot...), in.sample...)
	before, speedup := checkMix(r, s, checked)

	st0, err := s.stats()
	if err != nil {
		return nil, err
	}
	// The open loop runs in stretches of 0.9 s at the reference speed, each
	// followed, once its last request has finished, by 100 ms of the
	// calibration kernel, which scales the stretch's latencies and CPU time
	// to the reference speed (calib.go) and sets the next stretch's rate:
	// cfg.rate requests per second at the reference speed, fewer per
	// wall-clock second in a slow spell. So the server is as busy in a slow
	// spell as in a fast one, and waiting behind other requests scales like
	// the service times do. Over ten 30-s runs, scaling cut the spread of
	// the times from 10-16% to 2-6%. In ten interleaved pairs of runs in a
	// noisy hour, hit_ms_p90, mostly a hit's wait behind a miss, spread by
	// 19% at a fixed wall-clock rate and by 13% at this one.
	const stretch, kernelTime = 900 * time.Millisecond, 100 * time.Millisecond
	loopStart := time.Now()
	var recs []reqRecord
	var used usage
	var factors []float64
	serial(func() {
		f := calibrate(time.Now().Add(kernelTime))
		deadline := time.Now().Add(time.Duration(loopSecs * float64(time.Second)))
		for plan := in.plan; len(plan) > 0 && time.Now().Before(deadline); {
			part := plan[:min(len(plan), max(1, int(cfg.rate*stretch.Seconds())))]
			plan = plan[len(part):]
			u0 := readUsage()
			got := openLoop(s, part, cfg.rate*f, cfg.rec)
			u := readUsage().minus(u0)
			f = calibrate(time.Now().Add(kernelTime))
			u.cpu = time.Duration(float64(u.cpu) * f)
			used = used.plus(u)
			for i := range got {
				got[i].speed = f
			}
			recs, factors = append(recs, got...), append(factors, f)
		}
	})
	r.addCalibration(factors)
	st1, err := s.stats()
	if err != nil {
		return nil, err
	}

	var hits, misses, late, connWait []float64
	for i := range recs {
		rr := &recs[i]
		want := "miss"
		if rr.m.hot {
			want = "hit"
			hits = append(hits, ms(rr.lat)*rr.speed)
		} else {
			misses = append(misses, ms(rr.lat)*rr.speed)
		}
		late = append(late, ms(rr.late))
		connWait = append(connWait, ms(rr.connWait))
		r.check(rr.err == nil && rr.status == http.StatusOK && rr.source == want && s.bodyOK(rr),
			"request %d: status %d, X-Egg-Cache %q (want %q), error %v, or a wrong body", i, rr.status, rr.source, want, rr.err)
	}
	d := func(a, b uint64) float64 { return float64(b - a) }
	r.check(st1.Runs-st0.Runs == uint64(len(misses)) && st1.QueueFull == st0.QueueFull && st1.Errors == st0.Errors,
		"/statz: %d runs for %d misses, %d queue-full, %d errors", st1.Runs-st0.Runs, len(misses),
		st1.QueueFull-st0.QueueFull, st1.Errors-st0.Errors)
	r.add("loadgen.late_ms_p99", "ms", percentile(late, 0.99), len(late))
	cacheReads := d(st0.Cache.Hits, st1.Cache.Hits) + d(st0.Cache.Misses, st1.Cache.Misses)
	r.add("memo.cache.hit_ratio", "ratio", d(st0.Cache.Hits, st1.Cache.Hits)/cacheReads, int(cacheReads))
	r.add("memo.cache.bytes", "bytes", float64(st1.Cache.Bytes), 1)
	r.add("memo.cache.evictions", "count", float64(st1.Cache.Evictions), 1)
	r.add("serve.runs", "count", d(st0.Runs, st1.Runs), 1)
	r.add("serve.queue_full", "count", d(st0.QueueFull, st1.QueueFull), 1)
	r.add("serve.errors", "count", d(st0.Errors, st1.Errors), 1)

	after, speedupAfter := checkMix(r, s, checked)
	r.check(sameCounters(before, after) && speedup == speedupAfter, "deterministic counters changed during the run")

	if cfg.rec == nil {
		r.add("setup_s", "s", setupS, cfg.setups)
		r.add("compile_ms_p50", "ms", median(misses), len(misses))
		r.add("compile_ms_p90", "ms", percentile(misses, 0.90), len(misses))
		r.add("hit_ms_p50", "ms", median(hits), len(hits))
		r.add("hit_ms_p90", "ms", percentile(hits, 0.90), len(hits))
		r.addPerOp(used, len(recs))
		r.add("peak_rss_mb", "MiB", peakRSSMiB(), 1)
		r.add("cycles_speedup_geomean", "x", speedup, len(in.hot))
		return r, nil
	}

	handler := map[string][]float64{}
	offset := loopStart.Sub(cfg.rec.Epoch())
	for _, ev := range cfg.rec.Events() {
		if ev.Cat == "handler" && ev.Start >= offset {
			handler[ev.Name] = append(handler[ev.Name], ms(ev.Dur))
		}
	}
	r.add("http.conn_wait_ms_p50", "ms", median(connWait), len(connWait))
	r.add("serve.handler_ms_p50.hit", "ms", median(handler["serve.handler.hit"]), len(handler["serve.handler.hit"]))
	r.add("serve.handler_ms_p50.miss", "ms", median(handler["serve.handler.miss"]), len(handler["serve.handler.miss"]))

	progs := make([]*program, len(in.sample))
	for i, m := range in.sample {
		progs[i] = &program{name: fmt.Sprintf("sample %d", i), src: m.canonical, rules: m.bundle.Rules, want: m.want}
	}
	order := rand.New(rand.NewSource(cfg.seed))
	var compiles []float64
	var phases []opStats
	serial(func() {
		compiles, phases = compileLoop(r, cfg.rec, progs, order, time.Now().Add(time.Duration(loopSecs*float64(time.Second))), 0)
	})
	// The collector's share is the served load's, per request: the compile
	// loop forces a collection before each compile.
	r.addGC(used, len(recs))
	r.add("memo.canon_hash.ms", "ms", median(in.canonMS), len(in.canonMS))
	addLayerMetrics(r, cfg, compiles, phases, before[len(in.hot):])
	return r, nil
}

// bodyOK checks a response body: a hit must repeat the warm-up response
// byte for byte; a miss must carry the module's content address and, for
// checked modules, the in-process optimization of the same canonical text.
func (s *server) bodyOK(rr *reqRecord) bool {
	if rr.m.hot {
		return rr.hitOK
	}
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(rr.body, &resp); err != nil {
		return false
	}
	return resp.Key == rr.m.key && resp.MLIR != "" && (rr.m.want == "" || resp.MLIR == rr.m.want)
}

// checkMix checks the modules the server's outputs are compared with (the
// hot set and the sample): the in-process compile of each canonical text
// stays the same across calls and with tracing on, each warm-up response
// carries it, and each module passes the differential oracle under its
// bundle's policy. It returns the traced compiles' counters and the hot
// set's cycle-model speedup.
func checkMix(r *result, s *server, checked []*mod) ([]opStats, float64) {
	var counters []opStats
	var speedups []float64
	for _, m := range checked {
		want, _, err := compile(nil, m.canonical, m.bundle.Rules)
		r.check(err == nil && (m.want == "" || want == m.want), "in-process compile changed or failed: %v", err)
		m.want = want
		out, st, err := tracedCompile(nil, 0, m.canonical, m.bundle.Rules)
		r.check(err == nil && out == want, "traced compile output differs from the untraced one (%v)", err)
		counters = append(counters, st)
		res, err := difftest.Check(m.src, m.bundle.Options())
		r.check(err == nil && res.Failure == nil, "difftest (%s): %v %v", m.bundle.Name, err, failureText(res))
		if m.hot {
			var resp serve.OptimizeResponse
			err := json.Unmarshal(s.warm[m], &resp)
			r.check(err == nil && resp.Key == m.key && resp.MLIR == want, "warm-up response differs from the in-process compile (%v)", err)
			sp, err := cycleSpeedup(m.canonical, m.want)
			r.check(err == nil, "interpreting a hot-set module: %v", err)
			speedups = append(speedups, sp)
		}
	}
	return counters, geomean(speedups)
}

func failureText(res *difftest.Result) string {
	if res == nil || res.Failure == nil {
		return ""
	}
	return res.Failure.String()
}

// cycleSpeedup interprets every function of the original and optimized
// module on the same seeded inputs and returns the ratio of their total
// interpreter cycles.
func cycleSpeedup(orig, opt string) (float64, error) {
	mo, err := mlir.ParseModule(orig, dialects.NewRegistry())
	if err != nil {
		return 0, err
	}
	mn, err := mlir.ParseModule(opt, dialects.NewRegistry())
	if err != nil {
		return 0, err
	}
	var before, after int64
	rng := rand.New(rand.NewSource(1))
	for _, f := range mo.Funcs() {
		ft, ok := mlir.FuncType(f)
		if !ok {
			continue
		}
		args, err := difftest.RandomArgs(ft, rng)
		if err != nil {
			return 0, err
		}
		for _, side := range []struct {
			m      *mlir.Module
			cycles *int64
		}{{mo, &before}, {mn, &after}} {
			in := interp.New(side.m)
			in.MaxOps = 2_000_000
			if _, err := in.Call(mlir.FuncName(f), args...); err != nil {
				return 0, err
			}
			*side.cycles += in.Stats.Cycles
		}
	}
	if after == 0 {
		return 0, fmt.Errorf("optimized module ran no cycles")
	}
	return float64(before) / float64(after), nil
}
