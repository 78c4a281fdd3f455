package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dialegg/internal/egraph"
	"dialegg/internal/obs"
	"dialegg/internal/sched"
)

const keyModule = "module {\n}\n"

// TestKeyConfigNormalization: a zero config and an explicit-default config
// address the same entry; a semantically different config does not.
func TestKeyConfigNormalization(t *testing.T) {
	zero := Key(keyModule, nil, egraph.RunConfig{})
	expl := Key(keyModule, nil, egraph.RunConfig{}.WithDefaults())
	if zero != expl {
		t.Errorf("zero config key %s != defaulted config key %s", zero, expl)
	}
	other := Key(keyModule, nil, egraph.RunConfig{IterLimit: 7})
	if other == zero {
		t.Error("IterLimit change did not change the key")
	}
	naive := Key(keyModule, nil, egraph.RunConfig{Naive: true})
	if naive == zero {
		t.Error("Naive change did not change the key")
	}
}

// TestKeySchedulerSensitivity: a real scheduler is part of result
// identity, while nil and the simple strategy share the historic
// unscheduled key (they are bit-identical runs).
func TestKeySchedulerSensitivity(t *testing.T) {
	base := Key(keyModule, nil, egraph.RunConfig{})
	simple := Key(keyModule, nil, egraph.RunConfig{Scheduler: sched.Simple{}})
	if simple != base {
		t.Error("simple scheduler fragmented the cache key")
	}
	backoff := Key(keyModule, nil, egraph.RunConfig{Scheduler: sched.Backoff{Threshold: 10}})
	if backoff == base {
		t.Error("backoff scheduler did not change the key")
	}
	tuned := Key(keyModule, nil, egraph.RunConfig{Scheduler: sched.Backoff{Threshold: 20}})
	if tuned == backoff {
		t.Error("scheduler parameters did not change the key")
	}
}

// TestKeyIgnoresObservability: workers, sharding, selectivity sampling,
// tracing, and
// cancellation contexts do not change results, so they must not fragment
// the cache.
func TestKeyIgnoresObservability(t *testing.T) {
	base := Key(keyModule, []string{"(ruleset x)"}, egraph.RunConfig{})
	traced := Key(keyModule, []string{"(ruleset x)"}, egraph.RunConfig{
		Workers:       8,
		MatchShards:   32,
		ProfileSample: 1,
		Recorder:      obs.NewRecorder(),
		Ctx:           context.Background(),
	})
	if base != traced {
		t.Error("observability knobs changed the cache key")
	}
}

// TestKeyRuleSensitivity: rule text, order, and section boundaries all
// matter.
func TestKeyRuleSensitivity(t *testing.T) {
	ab := Key(keyModule, []string{"a", "b"}, egraph.RunConfig{})
	ba := Key(keyModule, []string{"b", "a"}, egraph.RunConfig{})
	joined := Key(keyModule, []string{"ab"}, egraph.RunConfig{})
	if ab == ba {
		t.Error("rule order did not change the key")
	}
	if ab == joined {
		t.Error("rule section boundary did not change the key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	val := make([]byte, 1000)
	per := int64(len("k0") + len(val) + entryOverhead)
	c := NewCache(3 * per)
	for i := 0; i < 3; i++ {
		c.Add(fmt.Sprintf("k%d", i), val)
	}
	// Touch k0 so k1 is the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Add("k3", val)
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 3 entries, 1 eviction", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("bytes %d exceeds budget %d", st.Bytes, st.MaxBytes)
	}
}

func TestCacheOversizeRejected(t *testing.T) {
	c := NewCache(256)
	c.Add("small", []byte("x"))
	c.Add("big", make([]byte, 10_000))
	if _, ok := c.Get("big"); ok {
		t.Error("oversize entry stored")
	}
	if _, ok := c.Get("small"); !ok {
		t.Error("oversize add evicted resident entries for nothing")
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

func TestCacheReplace(t *testing.T) {
	c := NewCache(1 << 20)
	c.Add("k", []byte("v1"))
	c.Add("k", []byte("longer value 2"))
	got, ok := c.Get("k")
	if !ok || string(got) != "longer value 2" {
		t.Errorf("got %q, want replacement value", got)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

func TestCacheZeroBudget(t *testing.T) {
	c := NewCache(0)
	c.Add("k", []byte("v"))
	if _, ok := c.Get("k"); ok {
		t.Error("zero-budget cache stored an entry")
	}
}

// TestGroupDedup: N concurrent Do calls for one key run fn once and all
// observe its result; exactly one caller reports shared == false.
func TestGroupDedup(t *testing.T) {
	g := NewGroup()
	var runs atomic.Int32
	release := make(chan struct{})
	const n = 8

	var wg sync.WaitGroup
	leaders := atomic.Int32{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, shared, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
				runs.Add(1)
				<-release
				return []byte("result"), nil
			})
			if err != nil || string(val) != "result" {
				t.Errorf("Do = %q, %v", val, err)
			}
			if !shared {
				leaders.Add(1)
			}
		}()
	}
	// Release only once all n callers have joined the flight: a caller
	// that arrived after the release would start a second one.
	for {
		g.mu.Lock()
		c := g.calls["k"]
		joined := c != nil && c.waiters == n
		g.mu.Unlock()
		if joined {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := leaders.Load(); got != 1 {
		t.Errorf("%d callers saw shared=false, want 1", got)
	}
	if g.Inflight() != 0 {
		t.Error("flight not cleaned up")
	}
}

// TestGroupCancelLastWaiter: when every waiter abandons a flight, its
// context is canceled and a later Do starts a fresh computation.
func TestGroupCancelLastWaiter(t *testing.T) {
	g := NewGroup()
	started := make(chan struct{})
	canceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			close(started)
			<-fctx.Done()
			close(canceled)
			return nil, fctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("abandoned waiter got %v, want context.Canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context never canceled after last waiter left")
	}
	wg.Wait()

	// The key is free again: a new Do must run a fresh fn.
	val, shared, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || shared || string(val) != "fresh" {
		t.Errorf("post-cancel Do = %q, shared=%v, err=%v; want fresh leader run", val, shared, err)
	}
}

// TestGroupSurvivingWaiter: one waiter leaving does not cancel the flight
// for the one that stays.
func TestGroupSurvivingWaiter(t *testing.T) {
	g := NewGroup()
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(ctx1, "k", func(fctx context.Context) ([]byte, error) {
			close(leaderIn)
			select {
			case <-release:
				return []byte("ok"), nil
			case <-fctx.Done():
				return nil, fctx.Err()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leaving waiter got %v", err)
		}
	}()
	<-leaderIn

	wg.Add(1)
	var stayVal []byte
	var stayErr error
	stayJoined := make(chan struct{})
	go func() {
		defer wg.Done()
		// Join the flight, then outlive the first waiter.
		close(stayJoined)
		stayVal, _, stayErr = g.Do(context.Background(), "k", nil)
	}()
	<-stayJoined
	// Give the stayer a moment to actually register as a waiter before the
	// first caller leaves (joining takes the group lock; poll its effect).
	for {
		g.mu.Lock()
		c := g.calls["k"]
		n := 0
		if c != nil {
			n = c.waiters
		}
		g.mu.Unlock()
		if n >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	close(release)
	wg.Wait()
	if stayErr != nil || string(stayVal) != "ok" {
		t.Errorf("surviving waiter got %q, %v; want ok", stayVal, stayErr)
	}
}
