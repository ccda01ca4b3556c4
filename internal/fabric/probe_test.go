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
// check: for any line, probeLine (the one-pass fast path) and the full
// json.Unmarshal into a lineProbe agree on the class — row, in-band
// error line, or reject — and on the row index. The committed corpus
// holds the lines that sit at the fast path's edges: a valid prefix
// over broken JSON, non-digits or an overflowing number after
// {"index":, a leading space, an in-band error line, later keys that
// encoding/json would also read as the index, keys and values that only
// end in "ndex", and \u escapes after the prefix.
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

// validJSON is jsonScan over a whole document: one value with optional
// whitespace around it.
func validJSON(b []byte) bool {
	s := jsonScan{b: b}
	s.ws()
	if !s.value() {
		return false
	}
	s.ws()
	return s.i == len(b)
}

// FuzzScanMatchesValid is the differential check on the validator under
// the fast path: jsonScan accepts a document exactly when json.Valid
// does, in both directions. The committed corpus holds nesting at the
// depth bound and one past it, \u escapes (good, short, non-hex),
// control bytes in strings, the number edges (01, 1., -, 1e+) and
// whitespace around and between values.
func FuzzScanMatchesValid(f *testing.F) {
	f.Add([]byte(`{"a":[1,-0.5e+3,true,false,null,"x\"y"],"b":{}}`))
	f.Add([]byte(" \t\r\n[]\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := validJSON(b), json.Valid(b); got != want {
			t.Fatalf("%q: jsonScan says valid=%v, json.Valid says %v", b, got, want)
		}
	})
}

// TestScanNestingBound pins which side of the depth bound each
// document falls on, which the differential fuzz targets only check for
// agreement: json.Valid and jsonScan both take maxNestingDepth nested
// arrays and objects and refuse one more, and a row nested that deep
// inside its own object still takes the fast path.
func TestScanNestingBound(t *testing.T) {
	for _, depth := range []int{maxNestingDepth, maxNestingDepth + 1} {
		for _, open := range []string{"[", `{"a":`} {
			closer := map[string]string{"[": "]", `{"a":`: "}"}[open]
			doc := strings.Repeat(open, depth) + "1" + strings.Repeat(closer, depth)
			if got, want := validJSON([]byte(doc)), depth <= maxNestingDepth; got != want || json.Valid([]byte(doc)) != want {
				t.Fatalf("depth %d of %q: jsonScan %v, json.Valid %v, want %v", depth, open, got, json.Valid([]byte(doc)), want)
			}
			// The row's own object is one level: depth-1 more fit in it.
			row := []byte(`{"index":3,"r":` + doc[len(open):len(doc)-len(closer)] + "}\n")
			if _, ok := fastProbe(row); ok != (depth <= maxNestingDepth) || ok != json.Valid(row) {
				t.Fatalf("row nested %d deep: fastProbe %v, json.Valid %v", depth, ok, json.Valid(row))
			}
		}
	}
}

// Every row a worker streams — evaluate, best, size and process rows —
// must take the fast path; otherwise the row check silently falls back
// to a full decode per row.
func TestProbeLineFastPathOnWorkerRows(t *testing.T) {
	size := testSpec()
	size.Op = grid.OpSize
	size.Configs = nil
	size.Techniques = nil
	size.TechniqueVariants = true
	best := testSpec()
	best.Op = grid.OpBest
	best.Techniques = nil
	for _, s := range []grid.Spec{testSpec(), best, processSpec(), size} {
		lines := bytes.SplitAfter(singleNodeNDJSON(t, s), []byte("\n"))
		lines = lines[:len(lines)-1] // the empty tail after the last newline
		if len(lines) == 0 {
			t.Fatalf("%q spec streamed no rows", s.Op)
		}
		for i, line := range lines {
			if idx, ok := fastProbe(line); !ok || idx != i {
				t.Fatalf("%q row %d does not take the fast path (index %d, ok %v): %s", s.Op, i, idx, ok, line)
			}
		}
	}
}

// BenchmarkRowCheck compares the row check's one pass with json.Valid
// alone, per row of an evaluate stream.
func BenchmarkRowCheck(b *testing.B) {
	spec := testSpec()
	spec.Techniques = nil
	spec.TechniqueVariants = true
	rows := bytes.SplitAfter(singleNodeNDJSON(b, spec), []byte("\n"))
	rows = rows[:len(rows)-1]
	b.Run("fastProbe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := fastProbe(rows[i%len(rows)]); !ok {
				b.Fatal("row declined")
			}
		}
	})
	b.Run("json.Valid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !json.Valid(rows[i%len(rows)]) {
				b.Fatal("row invalid")
			}
		}
	})
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
