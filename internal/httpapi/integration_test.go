package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/grid"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// newTestServer builds a Server + httptest listener over a fresh
// 64-server framework (the scale the package examples use).
func newTestServer(t *testing.T, mutate func(*Config) *Server) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Framework: core.New(64)}
	var s *Server
	var err error
	if mutate != nil {
		s = mutate(&cfg)
	}
	if s == nil {
		s, err = New(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestEvaluateMatchesInProcess pins the serving layer to the framework:
// a Table 3 config evaluated over HTTP must byte-match the same scenario
// run through core.Evaluate in-process and encoded the same way.
func TestEvaluateMatchesInProcess(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	body := `{
		"config":    {"name": "LargeEUPS"},
		"technique": {"name": "throttling", "pstate": 6},
		"workload":  "specjbb",
		"outage":    "30m"
	}`
	resp, got := post(t, ts.URL+"/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	peak := srv.fw.Env.PeakPower()
	res, err := srv.fw.Evaluate(cost.LargeEUPS(peak), technique.Throttling{PState: 6},
		workload.Specjbb(), 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(EvaluateResponse{Result: grid.NewResultDTO(res)})
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP response differs from in-process evaluation:\nhttp: %s\nwant: %s", got, want.Bytes())
	}
}

// TestSizeMatchesInProcess does the same for the sizing endpoint.
func TestSizeMatchesInProcess(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	body := `{"technique": {"name": "sleep", "low_power": true}, "workload": "web-search", "outage": "1h"}`
	resp, got := post(t, ts.URL+"/v1/size", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}

	op, ok, err := srv.fw.MinCostUPSCtx(context.Background(),
		technique.Sleep{LowPower: true}, workload.WebSearch(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(sizeResponse(op, ok))
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP sizing differs from in-process:\nhttp: %s\nwant: %s", got, want.Bytes())
	}
}

// TestSaturationReturns429 holds the only evaluation slot with the test
// hook and checks the second request is shed with 429 + Retry-After
// while the first completes normally once released.
func TestSaturationReturns429(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var srv *Server
	_, ts := newTestServer(t, func(cfg *Config) *Server {
		cfg.MaxInflight = 1
		var err error
		srv, err = New(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.testHookEvalStarted = func(context.Context) {
			entered <- struct{}{}
			<-release
		}
		return srv
	})

	body := `{"config":{"name":"NoDG"},"technique":{"name":"baseline"},"workload":"memcached","outage":"5m"}`
	type result struct {
		status int
		body   []byte
		err    error
	}
	first := make(chan result, 1)
	go func() {
		// http.Post directly: t.Fatal must not run off the test goroutine.
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			first <- result{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		first <- result{resp.StatusCode, b, err}
	}()
	<-entered // the first request now owns the only slot

	resp, b := post(t, ts.URL+"/v1/evaluate", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 (%s)", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var eb ErrorBody
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != "saturated" {
		t.Errorf("429 body = %s (unmarshal err %v), want code \"saturated\"", b, err)
	}

	close(release)
	r := <-first
	if r.err != nil {
		t.Fatalf("first request: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("first request after release: status %d: %s", r.status, r.body)
	}
}

// TestDeadlineReturns504 parks a sizing request past its deadline via
// the test hook: the sweep then observes the expired context mid-flight
// and the request maps to 504 — and the shared cache stays usable for
// the next request.
func TestDeadlineReturns504(t *testing.T) {
	var srv *Server
	_, ts := newTestServer(t, func(cfg *Config) *Server {
		cfg.Timeout = 50 * time.Millisecond
		var err error
		srv, err = New(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.testHookEvalStarted = func(ctx context.Context) { <-ctx.Done() }
		return srv
	})

	body := `{"technique":{"name":"hibernate"},"workload":"specjbb","outage":"30m"}`
	resp, b := post(t, ts.URL+"/v1/size", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, b)
	}
	var eb ErrorBody
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != "deadline_exceeded" {
		t.Errorf("504 body = %s (unmarshal err %v), want code \"deadline_exceeded\"", b, err)
	}

	// The shared framework and its cache must still serve: drop the hook
	// and repeat the identical request successfully.
	srv.testHookEvalStarted = nil
	resp, b = post(t, ts.URL+"/v1/size", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout request: status %d: %s", resp.StatusCode, b)
	}
	op, ok, err := srv.fw.MinCostUPSCtx(context.Background(),
		technique.Hibernate{}, workload.Specjbb(), 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(sizeResponse(op, ok))
	if !bytes.Equal(b, want.Bytes()) {
		t.Errorf("post-timeout sizing differs from in-process:\nhttp: %s\nwant: %s", b, want.Bytes())
	}
}

// metricsSnapshot fetches /metrics and decodes the counters the tests
// assert on.
type metricsSnapshot struct {
	Cache struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
	} `json:"cache"`
	Inflight  int64             `json:"inflight"`
	Requests  map[string]uint64 `json:"requests"`
	Saturated uint64            `json:"saturated"`
	Statuses  map[string]uint64 `json:"statuses"`
	Timeouts  uint64            `json:"timeouts"`
}

func getMetrics(t *testing.T, base string) metricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	return m
}

// TestWarmCacheRepeatIsCacheHit asserts the serving-layer cache story
// via the /metrics counters: evaluating a scenario routes through the
// shared scenario cache (one counted event — a miss that simulates, or a
// hit if the cache is already warm), and an identical repeat hits it
// without adding a miss — the warm request never re-simulates, which is
// what makes it measurably faster than the cold one. All assertions are
// deltas against a baseline snapshot: the scenario cache is
// process-global and its counters are cumulative, so under `go test
// -count>1` (or after any test that touches the same scenario) the first
// request may legitimately be a hit rather than a miss.
func TestWarmCacheRepeatIsCacheHit(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// A custom configuration with capacities no other test uses, so the
	// first request within one process run is cold (later -count runs
	// find it warm, which the delta assertions tolerate).
	body := `{
		"config":    {"dg_power": "0W", "ups_power": "13.37kW", "ups_runtime": "41m"},
		"technique": {"name": "throttling", "pstate": 3},
		"workload":  "memcached",
		"outage":    "17m"
	}`

	before := getMetrics(t, ts.URL)
	resp, cold := post(t, ts.URL+"/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", resp.StatusCode, cold)
	}
	mid := getMetrics(t, ts.URL)
	coldActivity := (mid.Cache.Hits + mid.Cache.Misses) - (before.Cache.Hits + before.Cache.Misses)
	if coldActivity == 0 {
		t.Fatalf("first request never consulted the scenario cache (hits %d->%d, misses %d->%d)",
			before.Cache.Hits, mid.Cache.Hits, before.Cache.Misses, mid.Cache.Misses)
	}

	resp, warm := post(t, ts.URL+"/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", resp.StatusCode, warm)
	}
	after := getMetrics(t, ts.URL)
	if after.Cache.Hits <= mid.Cache.Hits {
		t.Errorf("warm repeat was not a cache hit (hits before %d, after %d)",
			mid.Cache.Hits, after.Cache.Hits)
	}
	if after.Cache.Misses != mid.Cache.Misses {
		t.Errorf("warm repeat re-simulated: misses went %d -> %d",
			mid.Cache.Misses, after.Cache.Misses)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("cold and warm responses differ:\ncold: %s\nwarm: %s", cold, warm)
	}
}

// TestRequestMetrics sanity-checks the request/status counters and the
// health endpoint.
func TestRequestMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	post(t, ts.URL+"/v1/evaluate", `{"bad json`)
	m := getMetrics(t, ts.URL)
	if m.Requests["/healthz"] < 1 {
		t.Errorf("healthz not counted: %v", m.Requests)
	}
	if m.Requests["/v1/evaluate"] < 1 {
		t.Errorf("evaluate not counted: %v", m.Requests)
	}
	if m.Statuses["400"] < 1 {
		t.Errorf("malformed request not counted as 400: %v", m.Statuses)
	}
	if m.Inflight != 0 {
		t.Errorf("inflight gauge stuck at %d", m.Inflight)
	}
}

// TestValidationErrorBodies spot-checks the typed 4xx contract across
// the rejection classes.
func TestValidationErrorBodies(t *testing.T) {
	_, ts := newTestServer(t, nil)

	cases := []struct {
		name      string
		path      string
		body      string
		wantCode  string
		wantField string
	}{
		{"unknown field", "/v1/evaluate", `{"configg": {}}`, "invalid_json", ""},
		{"trailing garbage", "/v1/evaluate", `{} {}`, "invalid_json", ""},
		{"missing outage", "/v1/evaluate",
			`{"config":{"name":"NoDG"},"technique":{"name":"baseline"},"workload":"specjbb"}`,
			"missing_field", "outage"},
		{"bad outage unit", "/v1/evaluate",
			`{"config":{"name":"NoDG"},"technique":{"name":"baseline"},"workload":"specjbb","outage":"30 fortnights"}`,
			"invalid_duration", "outage"},
		{"negative outage", "/v1/evaluate",
			`{"config":{"name":"NoDG"},"technique":{"name":"baseline"},"workload":"specjbb","outage":"-5m"}`,
			"out_of_range", "outage"},
		{"absurd outage", "/v1/evaluate",
			`{"config":{"name":"NoDG"},"technique":{"name":"baseline"},"workload":"specjbb","outage":"9000h"}`,
			"out_of_range", "outage"},
		{"unknown workload", "/v1/evaluate",
			`{"config":{"name":"NoDG"},"technique":{"name":"baseline"},"workload":"fortnite","outage":"5m"}`,
			"unknown_workload", "workload"},
		{"unknown config", "/v1/evaluate",
			`{"config":{"name":"MediumPerf"},"technique":{"name":"baseline"},"workload":"specjbb","outage":"5m"}`,
			"unknown_config", "config.name"},
		{"named plus custom config", "/v1/evaluate",
			`{"config":{"name":"NoDG","ups_power":"1kW"},"technique":{"name":"baseline"},"workload":"specjbb","outage":"5m"}`,
			"invalid_config", "config"},
		{"bad power unit", "/v1/evaluate",
			`{"config":{"ups_power":"1 kWh","ups_runtime":"5m"},"technique":{"name":"baseline"},"workload":"specjbb","outage":"5m"}`,
			"invalid_power", "config.ups_power"},
		{"unknown technique", "/v1/size",
			`{"technique":{"name":"overclocking"},"workload":"specjbb","outage":"5m"}`,
			"unknown_technique", "technique.name"},
		{"inapplicable param", "/v1/size",
			`{"technique":{"name":"sleep","pstate":3},"workload":"specjbb","outage":"5m"}`,
			"invalid_field", "technique.pstate"},
		{"pstate out of range", "/v1/size",
			`{"technique":{"name":"throttling","pstate":99},"workload":"specjbb","outage":"5m"}`,
			"out_of_range", "technique.pstate"},
		{"bad active fraction", "/v1/size",
			`{"technique":{"name":"migration-then-sleep","active_fraction":1.5},"workload":"specjbb","outage":"5m"}`,
			"out_of_range", "technique.active_fraction"},
		{"bad width", "/v1/best",
			`{"config":{"name":"NoDG"},"workload":"specjbb","outage":"5m","width":-2}`,
			"out_of_range", "width"},
	}
	for _, c := range cases {
		resp, b := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, b)
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(b, &eb); err != nil {
			t.Errorf("%s: non-JSON error body %s", c.name, b)
			continue
		}
		if eb.Error.Code != c.wantCode || eb.Error.Field != c.wantField {
			t.Errorf("%s: got (%s, %s), want (%s, %s) — %s",
				c.name, eb.Error.Code, eb.Error.Field, c.wantCode, c.wantField, eb.Error.Message)
		}
	}
}

// TestMethodNotAllowed pins the mux's method discipline.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/evaluate: status %d, want 405", resp.StatusCode)
	}
}
