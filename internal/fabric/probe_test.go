package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"net/http"
	"strings"
	"testing"
	"time"

	"backuppower/internal/grid"
)

// FuzzRowProbe is the differential check on the coordinator's row
// check: for any line, probeLine (the leading-index fast path) and the
// full json.Unmarshal into a lineProbe agree on the class — row, in-band
// error line, or reject — and on the row index. The committed corpus
// holds the lines that sit at the fast path's edges: a valid prefix
// over broken JSON, non-digits or an overflowing number after
// {"index":, a leading space, an in-band error line, and later keys that
// encoding/json would also read as the index.
func FuzzRowProbe(f *testing.F) {
	f.Add([]byte(`{"index":7,"op":"best"}` + "\n"))
	f.Add([]byte(`{"index":0,"error":{"code":"invalid_scenario"}}`))
	f.Add([]byte(`{"error":{"code":"deadline_exceeded","message":"late"}}` + "\n"))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := probeLine(line)
		want, wantErr := unmarshalProbe(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: probeLine error %v, full decode error %v", line, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.row != want.row || got.index != want.index || !bytes.Equal(got.detail, want.detail) {
			t.Fatalf("%q: probeLine %+v, full decode %+v", line, got, want)
		}
	})
}

// Every row a worker streams must take the fast path; otherwise the row
// check silently falls back to a full decode per row.
func TestProbeLineFastPathOnWorkerRows(t *testing.T) {
	spec := testSpec()
	spec.Op = grid.OpSize
	spec.Configs = nil
	spec.Techniques = nil
	spec.TechniqueVariants = true
	for _, s := range []grid.Spec{testSpec(), processSpec(), spec} {
		lines := bytes.SplitAfter(singleNodeNDJSON(t, s), []byte("\n"))
		lines = lines[:len(lines)-1] // the empty tail after the last newline
		for i, line := range lines {
			idx, ok := leadingIndex(line)
			if !ok || idx != i || !json.Valid(line) {
				t.Fatalf("row %d does not take the fast path (index %d, ok %v): %s", i, idx, ok, line)
			}
		}
	}
}

// lyingWorker rewrites one extent header of every sweep response before
// it goes out, as a worker that compiled a different plan would.
type lyingWorker struct {
	http.ResponseWriter
	header, value string
}

func (l *lyingWorker) WriteHeader(code int) {
	l.Header().Set(l.header, l.value)
	l.ResponseWriter.WriteHeader(code)
}

func (l *lyingWorker) Flush() {
	if f, ok := l.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestFabricRejectsWrongExtentHeaders: a worker whose X-Sweep-Plan-Rows
// or X-Sweep-Rows disagrees with the coordinator is faulted on every
// attempt. With a healthy peer the run still merges the single-node
// bytes, and every attempt on the liar failed, validated no row and
// counted toward its quarantine; alone, it fails the run after the
// retry budget.
func TestFabricRejectsWrongExtentHeaders(t *testing.T) {
	spec := testSpec()
	want := singleNodeNDJSON(t, spec)
	for _, h := range []struct{ name, value string }{
		{"X-Sweep-Plan-Rows", "23"},
		{"X-Sweep-Plan-Rows", "lots"},
		{"X-Sweep-Rows", "1"},
	} {
		liar := func(i int, inner http.Handler) http.Handler {
			if i != 0 {
				return inner
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				inner.ServeHTTP(&lyingWorker{ResponseWriter: w, header: h.name, value: h.value}, r)
			})
		}

		urls := newWorkers(t, 2, liar)
		f, err := New(Options{Workers: urls, ShardRows: 3, HedgeAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := f.Run(t.Context(), spec, &got); err != nil {
			t.Fatalf("%s=%s: %v", h.name, h.value, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s=%s: merged stream diverged from single node", h.name, h.value)
		}
		count := func(m *expvar.Map) int64 { return m.Get(urls[0]).(*expvar.Int).Value() }
		dispatched, failed := count(&f.metrics.workerDispatched), count(&f.metrics.workerFailed)
		if dispatched == 0 || failed != dispatched || count(&f.metrics.workerRows) != 0 {
			t.Fatalf("%s=%s: liar dispatched %d, failed %d, rows %d; want every attempt failed with no rows",
				h.name, h.value, dispatched, failed, count(&f.metrics.workerRows))
		}
		f.pool.mu.Lock()
		strikes := f.pool.workers[0].consecFails
		f.pool.mu.Unlock()
		if int64(strikes) != failed {
			t.Fatalf("%s=%s: liar has %d quarantine strikes for %d failed attempts", h.name, h.value, strikes, failed)
		}

		alone, err := New(Options{Workers: urls[:1], HedgeAfter: -1, MaxRetries: 2})
		if err != nil {
			t.Fatal(err)
		}
		alone.opt.sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
		err = alone.Run(t.Context(), spec, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), h.name) {
			t.Fatalf("%s=%s: lone liar run error %v, want a %s fault", h.name, h.value, err, h.name)
		}
		if got := alone.Metrics().shardsRetried.Value(); got != 2 {
			t.Fatalf("%s=%s: header fault retried %d times, want the full budget of 2", h.name, h.value, got)
		}
	}
}
