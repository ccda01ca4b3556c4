package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"backuppower/internal/core"
	"backuppower/internal/grid"
)

// sweepSpecJSON is the shared probe body: a 2-workload × 2-config ×
// 2-technique × 3-outage evaluate grid (24 rows), small enough to run in
// milliseconds but wide enough that parallel execution reorders work.
const sweepSpecJSON = `{
	"workloads": ["specjbb", "memcached"],
	"configs": [{"name": "MaxPerf"}, {"name": "NoDG"}],
	"techniques": [{"name": "baseline"}, {"name": "throttling", "pstate": 3}],
	"outages": ["30s", "5m", "30m"]
}`

func sweepBody(extra string) string {
	if extra != "" {
		extra = "," + extra
	}
	return `{"spec":` + sweepSpecJSON + extra + `}`
}

// TestSweepStreamDeterministic is the endpoint half of the tentpole's
// determinism contract: the NDJSON body must be byte-identical at any
// requested width and any shard size.
func TestSweepStreamDeterministic(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, baseline := post(t, ts.URL+"/v1/sweep", sweepBody(`"width":1,"shard_size":1`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d: %s", resp.StatusCode, baseline)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSuffix(string(baseline), "\n"), "\n")
	if len(lines) != 24 {
		t.Fatalf("got %d rows, want 24", len(lines))
	}
	for i, line := range lines {
		var row struct {
			Index *int   `json:"index"`
			Op    string `json:"op"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %d is not JSON: %v: %s", i, err, line)
		}
		if row.Index == nil || *row.Index != i || row.Op != "evaluate" {
			t.Fatalf("row %d out of order or mislabeled: %s", i, line)
		}
	}

	for _, extra := range []string{
		``, `"width":8`, `"width":8,"shard_size":3`, `"width":2,"shard_size":1000`, `"shard_size":5`,
	} {
		resp, b := post(t, ts.URL+"/v1/sweep", sweepBody(extra))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", extra, resp.StatusCode, b)
		}
		if !bytes.Equal(b, baseline) {
			t.Fatalf("response with %q diverged from the serial baseline", extra)
		}
	}
}

// TestSweepValidation covers the request-level rejections: malformed
// bodies, compile errors (with the grid's field addressing), row-bound
// enforcement, and knob ranges — all as typed 4xx JSON, never a stream.
func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) *Server {
		cfg.MaxSweepRows = 10
		return nil
	})
	cases := []struct {
		name  string
		body  string
		code  string
		field string
	}{
		{"trailing garbage", `{"spec":{}} x`, "invalid_json", ""},
		{"unknown spec field", `{"spec":{"shards":4}}`, "invalid_json", ""},
		{"unknown op", `{"spec":{"op":"optimize"}}`, "invalid_field", "op"},
		{"missing workloads", `{"spec":{"outages":["30s"],"technique_variants":true,"op":"size"}}`,
			"missing_field", "workloads"},
		{"bad axis element", `{"spec":{"workloads":["specjbb"],"technique_variants":true,"op":"size",` +
			`"outages":["30s","never"]}}`, "invalid_duration", "outages[1]"},
		{"bad nested technique", `{"spec":{"workloads":["specjbb"],"outages":["30s"],` +
			`"configs":[{"name":"MaxPerf"}],"techniques":[{"name":"baseline"},{"name":"warp"}]}}`,
			"unknown_technique", "techniques[1].name"},
		{"row bound", sweepBody(``), "too_many_rows", "max_rows"},
		{"bad width", `{"spec":{},"width":-1}`, "out_of_range", "width"},
		{"bad shard size", `{"spec":{},"shard_size":-1}`, "out_of_range", "shard_size"},
		{"bad timeout", `{"spec":{},"timeout":"soon"}`, "invalid_duration", "timeout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, b := post(t, ts.URL+"/v1/sweep", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, b)
			}
			var eb ErrorBody
			if err := json.Unmarshal(b, &eb); err != nil {
				t.Fatalf("error body is not JSON: %v: %s", err, b)
			}
			if eb.Error.Code != c.code || eb.Error.Field != c.field {
				t.Fatalf("got (%s, %s): %s; want (%s, %s)",
					eb.Error.Code, eb.Error.Field, eb.Error.Message, c.code, c.field)
			}
		})
	}
}

// TestSweepDeadlineMidStream pins the in-band failure path: once the
// stream has begun the status line is spent, so a deadline expiry must
// arrive as a final NDJSON error line rather than a 504.
func TestSweepDeadlineMidStream(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, b := post(t, ts.URL+"/v1/sweep", sweepBody(`"timeout":"1ns"`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming failure changed the status: %d: %s", resp.StatusCode, b)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	last := lines[len(lines)-1]
	var eb ErrorBody
	if err := json.Unmarshal([]byte(last), &eb); err != nil || eb.Error.Code != "deadline_exceeded" {
		t.Fatalf("final line is not the deadline error: %s", last)
	}
	if len(lines) > 24 {
		t.Fatalf("stream kept going after the deadline: %d lines", len(lines))
	}
}

// TestSweepSaturationReturns429: admission control applies to sweeps
// exactly as to single evaluations — the stream never starts on a
// saturated server.
func TestSweepSaturationReturns429(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv, ts := newTestServer(t, func(cfg *Config) *Server {
		cfg.MaxInflight = 1
		return nil
	})
	srv.testHookEvalStarted = func(context.Context) {
		close(started)
		<-release
	}

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(``)))
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	resp, b := post(t, ts.URL+"/v1/sweep", sweepBody(``))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second sweep on a full server: status %d: %s", resp.StatusCode, b)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestSweepRowRange pins the shard-execution contract the fabric
// coordinator relies on: a row_range request streams exactly the
// requested lines of the full stream — same bytes, same indices — and
// carries the identity/extent headers.
func TestSweepRowRange(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) *Server {
		cfg.WorkerID = "w-test"
		return nil
	})
	resp, full := post(t, ts.URL+"/v1/sweep", sweepBody(``))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full sweep status %d: %s", resp.StatusCode, full)
	}
	if got := resp.Header.Get("X-Backupd-Worker"); got != "w-test" {
		t.Fatalf("X-Backupd-Worker = %q, want w-test", got)
	}
	if got := resp.Header.Get("X-Sweep-Plan-Rows"); got != "24" {
		t.Fatalf("X-Sweep-Plan-Rows = %q, want 24", got)
	}
	lines := strings.SplitAfter(string(full), "\n")

	for _, r := range [][2]int{{0, 24}, {0, 1}, {2, 5}, {23, 24}, {5, 24}} {
		body := sweepBody(fmt.Sprintf(`"row_range":{"start":%d,"end":%d}`, r[0], r[1]))
		resp, part := post(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("range %v status %d: %s", r, resp.StatusCode, part)
		}
		if got, want := resp.Header.Get("X-Sweep-Rows"), fmt.Sprintf("%d", r[1]-r[0]); got != want {
			t.Fatalf("range %v X-Sweep-Rows = %q, want %q", r, got, want)
		}
		want := strings.Join(lines[r[0]:r[1]], "")
		if string(part) != want {
			t.Fatalf("range %v stream differs from the full stream's slice:\ngot:\n%s\nwant:\n%s",
				r, part, want)
		}
	}
}

// TestSweepRowRangeValidation: out-of-plan and empty ranges are typed
// 400s, decided before the stream starts.
func TestSweepRowRangeValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, rr := range []string{
		`{"start":-1,"end":2}`, `{"start":0,"end":25}`, `{"start":7,"end":7}`, `{"start":9,"end":3}`,
	} {
		resp, b := post(t, ts.URL+"/v1/sweep", sweepBody(`"row_range":`+rr))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("row_range %s: status %d: %s", rr, resp.StatusCode, b)
		}
		var eb ErrorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != "out_of_range" || eb.Error.Field != "row_range" {
			t.Fatalf("row_range %s: unexpected rejection: %s", rr, b)
		}
	}
}

// TestGoldenSweep pins one representative NDJSON row stream per op to a
// committed golden file, with each line canonicalized the way the other
// endpoint goldens are. Regenerate with `go test ./internal/httpapi -update`.
func TestGoldenSweep(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"sweep-evaluate", `{"spec":{"workloads":["specjbb"],"configs":[{"name":"LargeEUPS"}],` +
			`"techniques":[{"name":"throttle-then-save","pstate":6,"save":"hibernate"}],` +
			`"outages":["30s","30m","2h"]}}`},
		{"sweep-size", `{"spec":{"op":"size","workloads":["web-search"],` +
			`"techniques":[{"name":"hibernate","proactive":true},{"name":"baseline"}],"outages":["1h"]}}`},
		{"sweep-best", `{"spec":{"op":"best","workloads":["memcached"],` +
			`"configs":[{"name":"SmallPUPS"},{"name":"MinCost"}],"outages":["30m"]}}`},
		{"sweep-process", `{"spec":{"workloads":["specjbb"],"configs":[{"name":"NoDG"}],` +
			`"techniques":[{"name":"baseline"},{"name":"sleep","low_power":true}],` +
			`"outage_processes":[` +
			`{"seed":42,"draws":8,"arrival":{"kind":"exponential","mean":"2000h"},` +
			`"duration":{"kind":"weibull","mean":"30m","shape":0.8},"correlation":0.3},` +
			`{"seed":7,"draws":4,"arrival":{"kind":"empirical"},"duration":{"kind":"empirical"}}]}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, raw := post(t, ts.URL+"/v1/sweep", c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			var got bytes.Buffer
			for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
				fmt.Fprintf(&got, "# row %d\n", i)
				got.Write(canonicalJSON(t, []byte(line)))
			}

			path := filepath.Join("testdata", c.name+".golden.ndjson")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/httpapi -update` to create)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("sweep stream drifted from golden file %s:\ngot:\n%s\nwant:\n%s",
					path, got.Bytes(), want)
			}
		})
	}
}

// flushCounter counts the flushes a handler pushes through to the
// connection's writer.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestSweepFlushesShardByShard: the metrics middleware's status recorder
// passes flushes through, so a multi-shard sweep reaches the client shard
// by shard rather than in one piece at the end.
func TestSweepFlushesShardByShard(t *testing.T) {
	s, err := New(Config{Framework: core.New(64)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweepBody(`"shard_size":4`)))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !rec.Flushed {
		t.Fatalf("status %d, flushed %v; want 200 and a flushed stream", rec.Code, rec.Flushed)
	}

	counted := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	req = httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweepBody(`"shard_size":4`)))
	s.Handler().ServeHTTP(counted, req)
	if !bytes.Equal(counted.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatal("the two runs of one sweep differ")
	}
	// 24 rows in shards of 4: a flush per completed shard plus the final one.
	if counted.flushes < 6 {
		t.Fatalf("%d flushes for a 6-shard sweep", counted.flushes)
	}
}

// stubBackend is a SweepBackend that streams a fixed prefix and then
// fails with err.
type stubBackend struct {
	err      error
	planRows int
}

func (b *stubBackend) RunPlan(_ context.Context, _ grid.Spec, _ *grid.Plan, planRows int, w io.Writer) error {
	b.planRows = planRows
	io.WriteString(w, `{"index":0}`+"\n")
	return b.err
}

func (b *stubBackend) MetricsSections() []MetricsSection {
	v := new(expvar.Int)
	v.Set(7)
	return []MetricsSection{{Key: "stub", Value: v}}
}

// TestSweepBackendErrors: a plan run by a sweep backend keeps the
// server's streaming contract. A backend failure is an in-band
// fabric_failed line, never the input-shaped invalid_scenario; context
// errors keep their own codes; the backend's members join /metrics.
func TestSweepBackendErrors(t *testing.T) {
	for _, c := range []struct {
		err  error
		code string
	}{
		{errors.New("shard 3 exhausted its retries"), "fabric_failed"},
		{fmt.Errorf("shard 0: %w", context.DeadlineExceeded), "deadline_exceeded"},
		{context.Canceled, "client_closed_request"},
	} {
		backend := &stubBackend{err: c.err}
		_, ts := newTestServer(t, func(cfg *Config) *Server {
			cfg.Sweep = backend
			return nil
		})
		resp, body := post(t, ts.URL+"/v1/sweep", sweepBody(`"row_range":{"start":2,"end":4}`))
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		var last ErrorBody
		if resp.StatusCode != http.StatusOK || len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &last) != nil {
			t.Fatalf("%v: status %d body %q", c.err, resp.StatusCode, body)
		}
		if last.Error.Code != c.code || backend.planRows != 24 || resp.Header.Get("X-Sweep-Rows") != "2" {
			t.Fatalf("%v: code %q, plan rows %d, X-Sweep-Rows %q", c.err, last.Error.Code,
				backend.planRows, resp.Header.Get("X-Sweep-Rows"))
		}
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		doc, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if !strings.Contains(string(doc), `"stub":7,`) {
			t.Fatalf("metrics document lacks the backend's member: %s", doc)
		}
	}
}
