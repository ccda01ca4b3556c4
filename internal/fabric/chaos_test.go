package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// chaosMid wraps a real backupd handler so the next `kills` sweep
// requests die mid-stream: the full shard response is rendered into a
// recorder, the first half of its lines are written and flushed, and then
// the connection is torn down — exactly what a worker crash looks like to
// the coordinator. Later requests (the re-dispatches) pass through clean.
func chaosMid(kills *atomic.Int32) func(int, http.Handler) http.Handler {
	return func(_ int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/sweep" || kills.Add(-1) < 0 {
				inner.ServeHTTP(w, r)
				return
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				panic(http.ErrAbortHandler)
			}
			r2 := r.Clone(r.Context())
			r2.Body = io.NopCloser(bytes.NewReader(body))
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r2)
			if rec.Code != http.StatusOK {
				// Not a stream (a 4xx/429): forward it untouched and let
				// the kill budget apply to a later streaming request.
				kills.Add(1)
				for k, vs := range rec.Header() {
					w.Header()[k] = vs
				}
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
			lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(http.StatusOK)
			for i := 0; i < len(lines)/2; i++ {
				w.Write(lines[i])
			}
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler) // kill the connection mid-shard
		})
	}
}

// TestFabricSurvivesWorkerDeathMidShard is the chaos satellite: a worker
// dies partway through streaming a shard — after its rows have started
// arriving — and the merged output must still be byte-identical to the
// single-node run. Repeated across worker counts and seeds (which vary
// how many kills land and on which shards), including back-to-back kills
// that push a worker into quarantine.
func TestFabricSurvivesWorkerDeathMidShard(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)
	for _, workers := range []int{1, 2, 3} {
		for seed := 0; seed < 4; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				var kills atomic.Int32
				kills.Store(int32(1 + seed)) // 1..4 mid-stream deaths per run
				urls := newWorkers(t, workers, chaosMid(&kills))
				f, err := New(Options{
					Workers:    urls,
					ShardRows:  1 + seed, // vary shard geometry with the seed
					HedgeAfter: -1,       // isolate re-dispatch from hedging
					MaxRetries: 8,        // enough budget for every kill to land on one chain
				})
				if err != nil {
					t.Fatal(err)
				}
				// Swallow backoff waits; the kills make retries mandatory
				// and the schedule is covered elsewhere.
				f.opt.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
				var got bytes.Buffer
				if err := f.Run(t.Context(), spec, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("merged stream diverged from single node after %d mid-shard deaths", 1+seed)
				}
				if f.Metrics().shardsRetried.Value() == 0 && kills.Load() < int32(1+seed) {
					t.Fatal("a kill landed but no retry was recorded")
				}
			})
		}
	}
}

// TestFabricHedgedChaos runs the same mid-shard deaths with hedging armed
// and retries disabled: recovery must come from hedge chains alone, and
// the bytes must still match.
func TestFabricHedgedChaos(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)
	var kills atomic.Int32
	kills.Store(2)
	urls := newWorkers(t, 3, chaosMid(&kills))
	f, err := New(Options{
		Workers:    urls,
		ShardRows:  6,
		HedgeAfter: time.Millisecond,
		MaxRetries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.opt.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	var got bytes.Buffer
	if err := f.Run(t.Context(), spec, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("merged stream diverged from single node under hedged chaos")
	}
}

// badTailMid wraps worker 0 so its next `bad` sweep responses stream
// the first half of their rows and then tail: a worker that breaks
// mid-shard in some way other than dropping the connection. Later
// requests pass through clean.
func badTailMid(tail []byte, bad *atomic.Int32) func(int, http.Handler) http.Handler {
	return func(i int, inner http.Handler) http.Handler {
		if i != 0 {
			return inner
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/sweep" || bad.Add(-1) < 0 {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			rows := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
			rows = rows[:len(rows)-1] // the empty tail after the last newline
			for _, line := range rows[:len(rows)/2] {
				w.Write(line)
			}
			w.Write(tail)
		})
	}
}

// TestFabricRetriesPastBadLine: when a worker follows valid rows with a
// line that fails the row check — a transient in-band error, a row out
// of order, a line that is not JSON, or 2 MiB with no newline (a broken
// or hostile worker, which must not grow the coordinator without bound)
// — the validated rows stand, the bad line is cut from the shard's
// buffer, the rest of the shard is retried, and the merged bytes are the
// single node's.
func TestFabricRetriesPastBadLine(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)
	first := want[:bytes.IndexByte(want, '\n')+1] // row 0, out of order anywhere else
	for name, tail := range map[string][]byte{
		"in-band error":   []byte(`{"error":{"code":"deadline_exceeded","message":"late"}}` + "\n"),
		"discontinuity":   first,
		"undecodable":     []byte(`{"index":3,"op":` + "\n"),
		"2 MiB unbounded": bytes.Repeat([]byte("x"), 2<<20),
	} {
		var bad atomic.Int32
		bad.Store(2)
		urls := newWorkers(t, 2, badTailMid(tail, &bad))
		f, err := New(Options{Workers: urls, ShardRows: 6, HedgeAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		f.opt.sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
		var got bytes.Buffer
		if err := f.Run(t.Context(), spec, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: merged stream diverged from single node:\n%s", name, got.Bytes())
		}
		if left := bad.Load(); left > 0 {
			t.Fatalf("%s: the bad worker served %d bad responses, want 2", name, 2-left)
		}
		if got := f.Metrics().shardsRetried.Value(); got != 2 {
			t.Fatalf("%s: %d shard retries, want one per bad response", name, got)
		}
	}
}

// TestFabricBoundsStreamLine: a lone worker that streams a line past
// maxLineBytes fails the run after the retry budget with a transient
// attemptError over errLineTooLong, keeping only whole rows.
func TestFabricBoundsStreamLine(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)
	var bad atomic.Int32
	bad.Store(1 << 20)
	urls := newWorkers(t, 1, badTailMid(bytes.Repeat([]byte("x"), 2<<20), &bad))
	f, err := New(Options{Workers: urls, ShardRows: 6, HedgeAfter: -1, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.opt.sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	var got bytes.Buffer
	err = f.Run(t.Context(), spec, &got)
	var ae *attemptError
	if !errors.As(err, &ae) || ae.permanent || !errors.Is(err, errLineTooLong) {
		t.Fatalf("error %v, want a transient attemptError over errLineTooLong", err)
	}
	if n := f.Metrics().shardsRetried.Value(); n < 2 {
		t.Fatalf("%d retries, want the budget of 2 spent", n)
	}
	if !bytes.HasPrefix(want, got.Bytes()) {
		t.Fatalf("partial output is not a prefix of the single-node stream:\n%s", got.Bytes())
	}
}
