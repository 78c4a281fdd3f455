package serve

// Tests for the live aggregate saturation profile (/debugz/profilez):
// profiled jobs fold into a lintable artifact, slow jobs link to their
// flight-recorder traces, and the endpoint 404s when profiling is off.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dialegg/internal/obs/profile"
)

func getProfilez(t *testing.T, s *Server) (*http.Response, []byte) {
	t.Helper()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debugz/profilez", nil))
	res := rr.Result()
	return res, rr.Body.Bytes()
}

func TestProfilez(t *testing.T) {
	s, c := newTestServer(t, Config{
		Workers:       1,
		Profile:       true,
		SlowThreshold: time.Nanosecond, // every job counts as slow
	})
	if _, _, err := c.Optimize(context.Background(), &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}); err != nil {
		t.Fatal(err)
	}

	res, body := getProfilez(t, s)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("profilez status %d:\n%s", res.StatusCode, body)
	}
	var got struct {
		Profile      profile.Profile `json:"profile"`
		SlowRequests []profSlowEntry `json:"slow_requests"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding profilez: %v\n%s", err, body)
	}
	if err := got.Profile.Lint(); err != nil {
		t.Errorf("live profile fails lint: %v", err)
	}
	if got.Profile.Runs == 0 || len(got.Profile.Rules) == 0 {
		t.Errorf("profile has no run data: %+v", got.Profile)
	}
	if len(got.Profile.Blame) == 0 {
		t.Error("profile has no blame section")
	}
	for _, rs := range got.Profile.Rules {
		if len(rs.Premises) == 0 {
			t.Errorf("rule %s carries no premise counters despite Profile", rs.Name)
		}
	}
	if len(got.SlowRequests) == 0 {
		t.Fatal("no slow-request links despite 1ns threshold")
	}
	for _, sr := range got.SlowRequests {
		if sr.ID == "" || !strings.HasPrefix(sr.Flightz, "/debugz/flightz?id=") {
			t.Errorf("malformed slow-request link: %+v", sr)
		}
		// The link must resolve: the flight recorder retained the request.
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, sr.Flightz, nil))
		if rr.Code != http.StatusOK {
			t.Errorf("flight link %s returned %d", sr.Flightz, rr.Code)
		}
	}

	// A cache hit must not inflate the aggregate: same request again, then
	// the profile still counts one run per executed module function.
	runsBefore := got.Profile.Runs
	if _, source, err := c.Optimize(context.Background(), &OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}); err != nil {
		t.Fatal(err)
	} else if source != "hit" {
		t.Fatalf("second request source = %q, want hit", source)
	}
	_, body = getProfilez(t, s)
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Profile.Runs != runsBefore {
		t.Errorf("cache hit changed profile runs: %d -> %d", runsBefore, got.Profile.Runs)
	}
}

func TestProfilezDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	res, body := getProfilez(t, s)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("profilez with profiling off: status %d, want 404:\n%s", res.StatusCode, body)
	}
}
