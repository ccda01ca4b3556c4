package fabric

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// newFrontend mounts Handler on a live listener over a real worker pool:
// the exact topology cmd/sweepfront -serve and cmd/vulture's multi-worker
// loopback target run.
func newFrontend(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	f, err := New(Options{Workers: newWorkers(t, workers, nil), DefaultServers: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// The serving surface keeps the tentpole contract: a sweep POSTed to the
// frontend merges to the same bytes a single-node run produces.
func TestHandlerSweepMatchesSingleNode(t *testing.T) {
	ts := newFrontend(t, 2)
	want := singleNodeNDJSON(t, testSpec())

	body, err := json.Marshal(map[string]any{"spec": testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frontend bytes differ from single-node run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// Decode failures are pre-stream and must come back as clean 400s.
func TestHandlerSweepRejects(t *testing.T) {
	ts := newFrontend(t, 1)
	cases := []struct {
		name, body string
	}{
		{"invalid json", `{"spec":`},
		{"unknown field", `{"spec":{},"nope":1}`},
		{"bad timeout", `{"spec":{},"timeout":"yesterday"}`},
		{"negative timeout", `{"spec":{},"timeout":"-5s"}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

// An oversized body and a body with data after the JSON object are
// rejected with a 400 while decoding, as backupd rejects them: no shard
// reaches a worker.
func TestHandlerSweepRejectsHostileBodies(t *testing.T) {
	var sweeps atomic.Int32
	urls := newWorkers(t, 1, func(_ int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sweeps.Add(1)
			inner.ServeHTTP(w, r)
		})
	})
	f, err := New(Options{Workers: urls, DefaultServers: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	spec, err := json.Marshal(map[string]any{"spec": testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	oversized := `{"spec":{"workloads":["` + strings.Repeat("a", 1<<20) + `"]}}`
	for name, body := range map[string]string{
		"oversized":        oversized,
		"trailing garbage": string(spec) + " trailing",
		"second document":  string(spec) + string(spec),
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "invalid_json") {
			t.Errorf("%s: status %d %s, want 400 invalid_json", name, resp.StatusCode, msg)
		}
	}
	if n := sweeps.Load(); n != 0 || f.Metrics().shardsDispatched.Value() != 0 {
		t.Fatalf("rejected bodies still reached workers: %d sweeps, %d dispatches", n, f.Metrics().shardsDispatched.Value())
	}
}

// A spec that fails to compile is rejected before the stream starts,
// exactly as backupd rejects it: a 400 with the grid's typed field error,
// and no worker contacted. (The coordinator once compiled after sending
// its 200 and reported this in-band as fabric_failed; one compile in the
// shared handler made it a clean pre-stream rejection.)
func TestHandlerSweepInBandError(t *testing.T) {
	ts := newFrontend(t, 1)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"spec":{"workloads":["no-such-workload"],"outages":["5m"],"configs":[{"name":"MaxPerf"}],"techniques":[{"name":"baseline"}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var doc struct {
		Error struct {
			Code    string `json:"code"`
			Field   string `json:"field"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Error.Code != "unknown_workload" || doc.Error.Field != "workloads[0]" || doc.Error.Message == "" {
		t.Fatalf("error body %+v", doc.Error)
	}
}

// A failure once the stream has started stays in-band with the
// coordinator's own code: a worker that answers with a server error on
// every attempt exhausts the shard's retries, and the final NDJSON line
// is fabric_failed, not the input-shaped invalid_scenario.
func TestHandlerSweepFabricFailedInBand(t *testing.T) {
	urls := newWorkers(t, 1, func(_ int, _ http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "down", http.StatusInternalServerError)
		})
	})
	f, err := New(Options{Workers: urls, DefaultServers: 64, MaxRetries: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	body, err := json.Marshal(map[string]any{"spec": testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with an in-band error", resp.StatusCode)
	}
	var doc struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(got, &doc); err != nil || doc.Error.Code != "fabric_failed" {
		t.Fatalf("stream %q: want one fabric_failed error line (%v)", got, err)
	}
}

// Metrics and liveness ride on the same handler.
func TestHandlerMetricsAndHealthz(t *testing.T) {
	ts := newFrontend(t, 1)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	// One document: the server's members beside the fabric's.
	for _, key := range []string{"cache", "requests", "statuses", "rows_merged", "shard_latency", "shards", "workers"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("metrics document missing %s: %v", key, doc)
		}
	}
	// Mutating methods stay off the read-only surface.
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}
