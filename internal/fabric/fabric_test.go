package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
)

// testSpec is the shared probe grid: 2 workloads × 2 configs ×
// 2 techniques × 3 outages = 24 rows with real outage-batch units, on an
// explicit 8-server axis so worker scale cannot drift from the test's.
func testSpec() grid.Spec {
	return grid.Spec{
		Servers:   []int{8},
		Workloads: []string{"specjbb", "memcached"},
		Configs:   []grid.ConfigDTO{{Name: "MaxPerf"}, {Name: "NoDG"}},
		Techniques: []grid.TechniqueDTO{
			{Name: "baseline"}, {Name: "throttling", PState: intp(3)},
		},
		Outages: []string{"30s", "5m", "30m"},
	}
}

func intp(v int) *int { return &v }

// singleNodeNDJSON runs the spec through the grid runner directly — the
// bytes cmd/gridrun and a single backupd both produce.
func singleNodeNDJSON(t testing.TB, spec grid.Spec) []byte {
	t.Helper()
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: 64})
	if err != nil {
		t.Fatalf("compile baseline: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err = grid.NewRunner(core.New(64)).RunStream(t.Context(), plan, grid.RunOptions{},
		func(row grid.RowResult) error { return enc.Encode(grid.NewRowDTO(plan.Op, row)) })
	if err != nil {
		t.Fatalf("run baseline: %v", err)
	}
	return buf.Bytes()
}

// newWorkers starts n real backupd handlers on httptest servers, each
// optionally wrapped by mid (worker index, inner handler).
func newWorkers(t *testing.T, n int, mid func(int, http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		api, err := httpapi.New(httpapi.Config{
			Framework: core.New(8),
			WorkerID:  fmt.Sprintf("w%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(api.Handler())
		if mid != nil {
			h = mid(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// TestFabricMatchesSingleNode is the tentpole contract: the merged
// stream is byte-identical to a single-node run at any worker count,
// shard size, and per-worker inflight bound.
func TestFabricMatchesSingleNode(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)
	for _, workers := range []int{1, 2, 3} {
		urls := newWorkers(t, workers, nil)
		for _, cfg := range []struct{ shardRows, inflight int }{
			{0, 0}, {1, 1}, {3, 2}, {5, 1}, {100, 2},
		} {
			f, err := New(Options{
				Workers:              urls,
				ShardRows:            cfg.shardRows,
				MaxInflightPerWorker: cfg.inflight,
				HedgeAfter:           -1, // plain dispatch; hedging has its own tests
			})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := f.Run(t.Context(), spec, &got); err != nil {
				t.Fatalf("workers=%d %+v: %v", workers, cfg, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("workers=%d %+v: merged stream diverged from single node\ngot:\n%s\nwant:\n%s",
					workers, cfg, got.Bytes(), want)
			}
			if got := f.Metrics().rowsMerged.Value(); got != 24 {
				t.Fatalf("workers=%d %+v: rows_merged = %d, want 24", workers, cfg, got)
			}
		}
	}
}

// TestFabricShardRowsScaleWithPlan: with no ShardRows the shard size is
// max(grid.DefaultShardRows, rows / (4 × workers)), cut on batch units,
// and the merged bytes are unchanged; an explicit ShardRows overrides it.
func TestFabricShardRowsScaleWithPlan(t *testing.T) {
	spec := grid.Spec{
		Servers:           []int{8},
		Workloads:         []string{"specjbb"},
		Configs:           []grid.ConfigDTO{{Name: "MaxPerf"}, {Name: "NoDG"}, {Name: "MinCost"}},
		TechniqueVariants: true,
		Outages:           []string{"30s", "2m", "5m", "10m", "20m", "30m", "1h", "2h"},
	}
	want := singleNodeNDJSON(t, spec)
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: 64})
	if err != nil {
		t.Fatal(err)
	}
	rows := len(plan.Points) // 720
	urls := newWorkers(t, 2, nil)
	for _, c := range []struct{ opt, size int }{
		{0, rows / 8},
		{5, 5},
		{grid.DefaultShardRows, grid.DefaultShardRows},
	} {
		f, err := New(Options{Workers: urls, ShardRows: c.opt, HedgeAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		if got := f.shardRows(rows); got != c.size {
			t.Fatalf("ShardRows %d: shard size %d, want %d", c.opt, got, c.size)
		}
		var got bytes.Buffer
		if err := f.Run(t.Context(), spec, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("ShardRows %d: merged stream diverged from single node", c.opt)
		}
		if got, want := f.Metrics().shardsDispatched.Value(), int64(len(plan.Shards(c.size))); got != want {
			t.Fatalf("ShardRows %d: %d shards dispatched, want %d", c.opt, got, want)
		}
	}
	f, err := New(Options{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.shardRows(100); got != grid.DefaultShardRows {
		t.Fatalf("a small plan shards at %d rows, want the %d-row floor", got, grid.DefaultShardRows)
	}

	// The study behind Figs 6-9 — nine Table 3 configs × 30 technique
	// variants × 16 outages = 4320 rows in 16-row batch units — goes out
	// over two workers as 8 even shards, not 8 × 528 rows plus a 96-row
	// tail.
	var configs []grid.ConfigDTO
	for _, b := range cost.Table3(1) {
		configs = append(configs, grid.ConfigDTO{Name: b.Name})
	}
	study := grid.Spec{
		Servers:           []int{8},
		Workloads:         []string{"specjbb"},
		Configs:           configs,
		TechniqueVariants: true,
		Outages: []string{"30s", "45s", "1m", "2m", "3m", "5m", "7m", "10m",
			"12m", "15m", "20m", "30m", "45m", "1h", "90m", "2h"},
	}
	plan, err = grid.Compile(study, grid.CompileOptions{DefaultServers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != 4320 {
		t.Fatalf("study has %d rows, want 4320", len(plan.Points))
	}
	f, err = New(Options{Workers: urls, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	shards := plan.Shards(f.shardRows(len(plan.Points)))
	lo, hi := len(plan.Points), 0
	for _, sh := range shards {
		lo, hi = min(lo, sh.Rows()), max(hi, sh.Rows())
	}
	if len(shards) != 8 || float64(hi)/float64(lo) > 1.1 {
		t.Fatalf("study shards %+v: want 8 with max/min rows <= 1.1", shards)
	}
	var got bytes.Buffer
	if err := f.Run(t.Context(), study, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), singleNodeNDJSON(t, study)) {
		t.Fatal("study: merged stream diverged from single node")
	}
	if n := f.Metrics().shardsDispatched.Value(); n != 8 {
		t.Fatalf("study: %d shards dispatched, want 8", n)
	}
}

// TestFabricEmptyPlan: a spec whose filter drops every row merges to an
// empty stream without touching the pool.
func TestFabricEmptyPlan(t *testing.T) {
	spec := testSpec()
	spec.Filter = &grid.Filter{MinOutage: "100h"}
	f, err := New(Options{Workers: []string{"http://127.0.0.1:1"}}) // nothing listens; nothing may be dialed
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := f.Run(t.Context(), spec, &got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty plan produced output: %s", got.Bytes())
	}
}

// TestFabricCompileErrorIsLocal: a spec the compiler rejects fails before
// any worker is contacted, with the grid's typed field error.
func TestFabricCompileErrorIsLocal(t *testing.T) {
	spec := testSpec()
	spec.Outages = nil
	f, err := New(Options{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	err = f.Run(t.Context(), spec, &bytes.Buffer{})
	var fe *grid.FieldError
	if err == nil || !errors.As(err, &fe) || fe.Field != "outages" {
		t.Fatalf("want outages FieldError, got %v", err)
	}
}

// TestFabricRetryAfter429 is the backpressure satellite: a worker
// answering 429 + Retry-After must be retried after exactly the pause it
// asked for — not the exponential schedule — and the run must still
// produce the single-node bytes.
func TestFabricRetryAfter429(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)

	var mu sync.Mutex
	rejections := 0
	urls := newWorkers(t, 1, func(_ int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			reject := rejections < 2
			if reject {
				rejections++
			}
			mu.Unlock()
			if reject && r.URL.Path == "/v1/sweep" {
				w.Header().Set("Retry-After", "7")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprintln(w, `{"error":{"code":"saturated","message":"full"}}`)
				return
			}
			inner.ServeHTTP(w, r)
		})
	})

	f, err := New(Options{
		Workers:    urls,
		ShardRows:  100, // one shard: both rejections hit the same chain
		HedgeAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	f.opt.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}

	var got bytes.Buffer
	if err := f.Run(t.Context(), spec, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("merged stream diverged from single node after 429 retries")
	}
	if len(slept) != 2 {
		t.Fatalf("expected 2 backoff sleeps, recorded %v", slept)
	}
	for i, d := range slept {
		if d != 7*time.Second {
			t.Fatalf("sleep %d was %v, want the worker's Retry-After of 7s (not the backoff schedule)", i, d)
		}
	}
	if got := f.Metrics().shardsRetried.Value(); got != 2 {
		t.Fatalf("shards_retried = %d, want 2", got)
	}
}

// TestFabricPermanentRejectionFailsFast: a 4xx other than 429 cannot be
// cured by a retry, so the run fails without burning the retry budget.
func TestFabricPermanentRejectionFailsFast(t *testing.T) {
	urls := newWorkers(t, 1, func(_ int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintln(w, `{"error":{"code":"invalid_field","message":"nope"}}`)
		})
	})
	f, err := New(Options{Workers: urls, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	err = f.Run(t.Context(), testSpec(), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("want an HTTP 400 failure, got %v", err)
	}
	if got := f.Metrics().shardsRetried.Value(); got != 0 {
		t.Fatalf("permanent rejection was retried %d times", got)
	}
}

// TestFabricHedging forces a straggler: the first sweep request against
// worker 0 stalls far past the hedge trigger, the hedge chain completes
// the shard on worker 1, and the merged bytes are unchanged.
func TestFabricHedging(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)

	var once sync.Once
	stall := make(chan struct{})
	urls := newWorkers(t, 2, func(i int, inner http.Handler) http.Handler {
		if i != 0 {
			return inner
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			stalled := false
			once.Do(func() {
				stalled = true
				// Drain the body so the server's background read can
				// notice the client abandoning the request.
				io.Copy(io.Discard, r.Body)
				select {
				case <-stall:
				case <-r.Context().Done():
				}
			})
			if stalled {
				// The stalled request dies with the connection; never stream.
				panic(http.ErrAbortHandler)
			}
			inner.ServeHTTP(w, r)
		})
	})
	// Registered after newWorkers so it runs before the servers' Close
	// (cleanups are LIFO): a still-stalled handler must be released first.
	t.Cleanup(func() { close(stall) })

	f, err := New(Options{
		Workers:    urls,
		ShardRows:  100, // one shard, so the stall is the whole run without hedging
		HedgeAfter: 20 * time.Millisecond,
		MaxRetries: -1, // no retries: only the hedge can save the shard
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := f.Run(t.Context(), spec, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("merged stream diverged from single node under hedging")
	}
	if got := f.Metrics().shardsHedged.Value(); got != 1 {
		t.Fatalf("shards_hedged = %d, want 1", got)
	}
}

// TestFabricWorkerIdentity: the coordinator records each worker's
// reported X-Backupd-Worker identity, and the metrics document carries
// the per-worker counters.
func TestFabricWorkerIdentity(t *testing.T) {
	urls := newWorkers(t, 2, nil)
	f, err := New(Options{Workers: urls, ShardRows: 3, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(t.Context(), testSpec(), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RowsMerged int `json:"rows_merged"`
		Workers    struct {
			Dispatched map[string]int    `json:"dispatched"`
			IDs        map[string]string `json:"ids"`
		} `json:"workers"`
	}
	var buf bytes.Buffer
	f.Metrics().Write(&buf)
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics document is not JSON: %v: %s", err, buf.Bytes())
	}
	if doc.RowsMerged != 24 {
		t.Fatalf("rows_merged = %d, want 24", doc.RowsMerged)
	}
	total := 0
	for _, n := range doc.Workers.Dispatched {
		total += n
	}
	if total < 1 {
		t.Fatalf("no dispatches recorded: %s", buf.Bytes())
	}
	ids := map[string]bool{}
	for _, id := range doc.Workers.IDs {
		ids[id] = true
	}
	if !ids["w0"] && !ids["w1"] {
		t.Fatalf("no worker identity recorded: %s", buf.Bytes())
	}
}

// TestLoopbackPool: the in-process pool serves the same bytes as the
// httptest workers — the mode make fabric-equivalence and the benchmarks
// use.
func TestLoopbackPool(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)
	urls, stop, err := Loopback(3, LoopbackConfig{Servers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	f, err := New(Options{Workers: urls, ShardRows: 4, DefaultServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := f.Run(t.Context(), spec, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("loopback fabric diverged from single node")
	}
}

// TestParseRetryAfter covers the header grammar.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("delta-seconds: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("absent: %v", d)
	}
	if d := parseRetryAfter("soon"); d != 0 {
		t.Fatalf("garbage: %v", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 10*time.Second {
		t.Fatalf("http-date: %v", d)
	}
	if d := retryDelay(1, &attemptError{retryAfter: time.Hour}); d != maxRetryAfter {
		t.Fatalf("hostile Retry-After not clamped: %v", d)
	}
	if d := retryDelay(3, &attemptError{}); d != baseBackoff<<2 {
		t.Fatalf("backoff schedule: %v", d)
	}
	if d := retryDelay(30, &attemptError{}); d != maxBackoff {
		t.Fatalf("backoff cap: %v", d)
	}
}

// countingWriter counts Write calls, and fails every one after the
// first failAfter (0 = never) without writing any of it.
type countingWriter struct {
	bytes.Buffer
	writes, failAfter int
}

var errWriterBroke = errors.New("writer broke")

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	if c.failAfter > 0 && c.writes > c.failAfter {
		return 0, errWriterBroke
	}
	return c.Buffer.Write(p)
}

// TestRunPlanWritesOncePerShard: the merger hands each due shard to the
// writer in one Write, the merged bytes are the single node's, and
// rows_merged counts the plan's rows. A writer that fails mid-stream
// ends the run with its own error, and the stream it kept holds whole
// shards — whole rows — only, as rows_merged does.
func TestRunPlanWritesOncePerShard(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: 64})
	if err != nil {
		t.Fatal(err)
	}
	urls := newWorkers(t, 2, nil)
	newFabric := func() *Fabric {
		f, err := New(Options{Workers: urls, ShardRows: 5, HedgeAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	shards := plan.Shards(5)
	if len(shards) < 3 {
		t.Fatalf("%d shards; the test needs at least 3", len(shards))
	}

	f := newFabric()
	w := &countingWriter{}
	if err := f.RunPlan(t.Context(), spec, plan, len(plan.Points), w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatal("merged stream diverged from single node")
	}
	if w.writes != len(shards) {
		t.Fatalf("%d writes for %d shards, want one per shard", w.writes, len(shards))
	}
	if got := f.Metrics().rowsMerged.Value(); got != int64(len(plan.Points)) {
		t.Fatalf("rows_merged = %d, want the plan's %d rows", got, len(plan.Points))
	}

	f = newFabric()
	w = &countingWriter{failAfter: 2}
	err = f.RunPlan(t.Context(), spec, plan, len(plan.Points), w)
	if !errors.Is(err, errWriterBroke) {
		t.Fatalf("failing writer: error %v, want one wrapping %v", err, errWriterBroke)
	}
	kept := shards[0].Rows() + shards[1].Rows()
	if lines := bytes.Count(w.Bytes(), []byte("\n")); !bytes.HasPrefix(want, w.Bytes()) || lines != kept {
		t.Fatalf("failing writer kept %d lines, want the first two shards' %d whole rows:\n%s", lines, kept, w.Bytes())
	}
	if got := f.Metrics().rowsMerged.Value(); got != int64(kept) {
		t.Fatalf("failing writer: rows_merged = %d, want the %d rows written", got, kept)
	}
}
