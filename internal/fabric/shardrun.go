package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
)

// Backoff bounds for retried attempts. A 429's Retry-After overrides the
// exponential schedule (clamped so a hostile header cannot park a chain).
const (
	baseBackoff   = 10 * time.Millisecond
	maxBackoff    = 1 * time.Second
	maxRetryAfter = 30 * time.Second
)

// attemptError is a classified shard-attempt failure.
type attemptError struct {
	msg        string
	permanent  bool          // a retry cannot help (the request itself is rejected)
	retryAfter time.Duration // the worker's requested pause (429), 0 if none
}

func (e *attemptError) Error() string { return e.msg }

func permanent(err error) bool {
	var ae *attemptError
	return errors.As(err, &ae) && ae.permanent
}

// runShard drives one shard to completion: a primary chain of attempts
// (watermark-resumed retries with backoff), plus — once the shard has run
// past the hedge trigger — a second independent chain racing it from the
// shard's start on another worker. The first chain to deliver the whole
// range wins and the loser is cancelled; only the winner's buffer is
// returned, so hedging never changes the merged bytes.
func (f *Fabric) runShard(ctx context.Context, spec grid.Spec, planRows int, sh grid.RowRange) ([][]byte, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type out struct {
		lines [][]byte
		err   error
	}
	resc := make(chan out, 2) // buffered: a losing chain must never block
	launch := func() {
		go func() {
			lines, err := f.runChain(ctx, spec, planRows, sh)
			resc <- out{lines: lines, err: err}
		}()
	}
	launch()
	chains := 1

	var hedgeC <-chan time.Time
	if d, ok := f.hedgeDelay(); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for {
		select {
		case o := <-resc:
			chains--
			if o.err == nil {
				if chains > 0 {
					// A losing chain is still running; the deferred
					// cancel aborts it.
					f.metrics.shardsCancelled.Add(int64(chains))
				}
				f.metrics.observeShardLatency(time.Since(start))
				return o.lines, nil
			}
			lastErr = o.err
			if permanent(o.err) || chains == 0 {
				return nil, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			f.metrics.shardsHedged.Add(1)
			launch()
			chains++
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// hedgeDelay resolves the hedge trigger: the fixed HedgeAfter when set,
// the adaptive quantile once enough shard latencies are recorded,
// otherwise no hedging (yet). Negative HedgeAfter disables hedging.
func (f *Fabric) hedgeDelay() (time.Duration, bool) {
	if f.opt.HedgeAfter < 0 {
		return 0, false
	}
	if f.opt.HedgeAfter > 0 {
		return f.opt.HedgeAfter, true
	}
	p50, _, n := f.metrics.shardLatencyQuantiles()
	if n < hedgeMinSamples {
		return 0, false
	}
	d := time.Duration(HedgeQuantileFactor) * p50
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	return d, true
}

// runChain is one chain of attempts over a shard: fetch rows from the
// chain's watermark, keep the validated prefix on failure, back off
// (honoring Retry-After), and re-dispatch the remainder — preferring a
// different worker than the one that just failed — up to MaxRetries times.
func (f *Fabric) runChain(ctx context.Context, spec grid.Spec, planRows int, sh grid.RowRange) ([][]byte, error) {
	lines := make([][]byte, 0, sh.Rows())
	watermark := sh.Start
	var last *worker
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			f.metrics.shardsRetried.Add(1)
			if err := f.opt.sleep(ctx, retryDelay(attempt, lastErr)); err != nil {
				return nil, err
			}
		}
		rows := sh.End - watermark
		w, err := f.pool.acquire(ctx, rows, last)
		if err != nil {
			return nil, err
		}
		f.metrics.shardsDispatched.Add(1)
		f.metrics.workerDispatched.Add(w.url, 1)
		before := len(lines)
		watermark, err = f.fetch(ctx, w, spec, planRows, grid.RowRange{Start: watermark, End: sh.End}, &lines)
		f.pool.release(w, rows, err == nil)
		if err == nil {
			return lines, nil
		}
		f.metrics.workerFailed.Add(w.url, 1)
		f.metrics.workerRows.Add(w.url, int64(len(lines)-before))
		if permanent(err) || ctx.Err() != nil || attempt >= f.opt.MaxRetries {
			return nil, err
		}
		last, lastErr = w, err
	}
}

// retryDelay is the pause before retry number attempt (>= 1): the
// worker's Retry-After when it sent one, else exponential backoff.
func retryDelay(attempt int, lastErr error) time.Duration {
	var ae *attemptError
	if errors.As(lastErr, &ae) && ae.retryAfter > 0 {
		if ae.retryAfter > maxRetryAfter {
			return maxRetryAfter
		}
		return ae.retryAfter
	}
	d := baseBackoff << (attempt - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	return d
}

// lineProbe is the minimal decode of one NDJSON line: enough to tell a
// row (index present; row-level errors included — they are rows) from a
// terminal in-band error line (no index, error object), and to validate
// stream contiguity.
type lineProbe struct {
	Index *int            `json:"index"`
	Error json.RawMessage `json:"error"`
}

// probed is a classified stream line: a row with its plan index, or a
// terminal in-band error with the worker's error object.
type probed struct {
	row    bool
	index  int
	detail json.RawMessage
}

// probeLine classifies one stream line exactly as json.Unmarshal into a
// lineProbe would (FuzzRowProbe pins the agreement), but reads a row's
// index from its leading {"index":N, and only checks that the rest is
// valid JSON — every row a worker writes starts that way, so the decode
// is left to the lines that do not: in-band errors and malformed input.
func probeLine(line []byte) (probed, error) {
	if idx, ok := leadingIndex(line); ok && json.Valid(line) {
		return probed{row: true, index: idx}, nil
	}
	return unmarshalProbe(line)
}

// unmarshalProbe is the full decode behind probeLine's fast path.
func unmarshalProbe(line []byte) (probed, error) {
	var p lineProbe
	if err := json.Unmarshal(line, &p); err != nil {
		return probed{}, err
	}
	if p.Index == nil {
		return probed{detail: p.Error}, nil
	}
	return probed{row: true, index: *p.Index}, nil
}

var indexPrefix = []byte(`{"index":`)

// leadingIndex reads N from a line that starts {"index":N, with N a
// plain decimal of at most 18 digits (so it cannot overflow). It
// declines whenever json.Unmarshal could read another index from the
// line: a later key that encoding/json matches to "index" (a duplicate,
// or the same name in another case) overrides the first, so any key
// ending in "ndex" under ASCII case folding — no other rune folds to
// n, d, e or x — or any \u escape sends the line to the full decode.
func leadingIndex(line []byte) (int, bool) {
	if !bytes.HasPrefix(line, indexPrefix) {
		return 0, false
	}
	rest := line[len(indexPrefix):]
	n, i := 0, 0
	for ; i < len(rest) && i < 18 && '0' <= rest[i] && rest[i] <= '9'; i++ {
		n = n*10 + int(rest[i]-'0')
	}
	if i == 0 || i == len(rest) || rest[i] != ',' || (rest[0] == '0' && i > 1) {
		return 0, false
	}
	rest = rest[i:]
	if bytes.Contains(rest, []byte(`\u`)) {
		return 0, false
	}
	for {
		q := bytes.IndexByte(rest, '"')
		if q < 0 {
			return n, true
		}
		if q >= 4 && bytes.EqualFold(rest[q-4:q], []byte("ndex")) {
			return 0, false
		}
		rest = rest[q+1:]
	}
}

// fetch runs one HTTP attempt for rows [r.Start, r.End): POST /v1/sweep
// with the spec and the explicit row range, validating that the response
// streams exactly the requested rows in order. Validated lines are
// appended to *lines verbatim (the merged output is the workers' bytes,
// never re-encoded). It returns the new watermark — r.Start plus the
// validated rows — and nil only when the whole range arrived.
//
// The worker's extent headers must agree with the coordinator: a
// X-Sweep-Plan-Rows other than planRows means the worker compiled a
// different plan, and a X-Sweep-Rows other than the range's size means
// it is about to stream the wrong rows. Either is a worker fault, retried
// elsewhere like a dead stream.
func (f *Fabric) fetch(ctx context.Context, w *worker, spec grid.Spec, planRows int, r grid.RowRange, lines *[][]byte) (int, error) {
	body, err := json.Marshal(httpapi.SweepRequest{
		Spec:     spec,
		Width:    f.opt.WorkerWidth,
		RowRange: &r,
	})
	if err != nil {
		return r.Start, &attemptError{msg: fmt.Sprintf("encode shard request: %v", err), permanent: true}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(w.url, "/")+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return r.Start, &attemptError{msg: fmt.Sprintf("build shard request: %v", err), permanent: true}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Sweep-Shard", fmt.Sprintf("%d-%d", r.Start, r.End))

	resp, err := f.opt.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return r.Start, ctx.Err()
		}
		return r.Start, &attemptError{msg: fmt.Sprintf("%s: %v", w.url, err)}
	}
	defer resp.Body.Close()
	if id := resp.Header.Get("X-Backupd-Worker"); id != "" {
		f.metrics.setWorkerID(w.url, id)
	}
	if resp.StatusCode != http.StatusOK {
		return r.Start, attemptFromStatus(w.url, resp)
	}
	for _, h := range []struct {
		name string
		want int
	}{{"X-Sweep-Plan-Rows", planRows}, {"X-Sweep-Rows", r.Rows()}} {
		v := resp.Header.Get(h.name)
		if n, err := strconv.Atoi(v); v != "" && (err != nil || n != h.want) {
			return r.Start, &attemptError{msg: fmt.Sprintf(
				"%s: %s is %q, want %d for rows [%d,%d)", w.url, h.name, v, h.want, r.Start, r.End)}
		}
	}

	rd := bufio.NewReader(resp.Body)
	want := r.Start
	for want < r.End {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			if ctx.Err() != nil {
				return want, ctx.Err()
			}
			return want, &attemptError{msg: fmt.Sprintf(
				"%s: stream died at row %d of [%d,%d): %v", w.url, want, r.Start, r.End, err)}
		}
		probe, err := probeLine(line)
		if err != nil {
			return want, &attemptError{msg: fmt.Sprintf("%s: undecodable stream line: %v", w.url, err)}
		}
		if !probe.row {
			// Terminal in-band error: the worker's run failed mid-stream.
			return want, attemptFromInbandError(w.url, probe.detail)
		}
		if probe.index != want {
			return want, &attemptError{msg: fmt.Sprintf(
				"%s: stream discontinuity: got row %d, want %d", w.url, probe.index, want)}
		}
		*lines = append(*lines, line)
		want++
	}
	f.metrics.workerRows.Add(w.url, int64(r.Rows()))
	return want, nil
}

// attemptFromStatus classifies a non-200 response: 429 is transient and
// carries the worker's Retry-After; other 4xx are permanent (the request
// is rejected, every worker will reject it); 5xx are transient.
func attemptFromStatus(url string, resp *http.Response) *attemptError {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	ae := &attemptError{msg: fmt.Sprintf("%s: HTTP %d: %s", url, resp.StatusCode,
		strings.TrimSpace(string(msg)))}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		ae.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		ae.permanent = true
	}
	return ae
}

// attemptFromInbandError classifies a terminal NDJSON error line.
// Request-shaped codes (invalid input discovered mid-run) are permanent;
// deadline and disconnect codes are worth another attempt elsewhere.
func attemptFromInbandError(url string, detail json.RawMessage) *attemptError {
	var d struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	json.Unmarshal(detail, &d)
	ae := &attemptError{msg: fmt.Sprintf("%s: worker error %s: %s", url, d.Code, d.Message)}
	switch d.Code {
	case "invalid_input", "invalid_scenario", "invalid_field", "missing_field",
		"out_of_range", "too_many_rows":
		ae.permanent = true
	}
	return ae
}

// parseRetryAfter reads a Retry-After header: delta-seconds or an HTTP
// date. 0 means absent or unparseable (the backoff schedule applies).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
