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
	"slices"
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
	cause      error         // the read error that broke the stream, if any
}

func (e *attemptError) Error() string { return e.msg }

func (e *attemptError) Unwrap() error { return e.cause }

func permanent(err error) bool {
	var ae *attemptError
	return errors.As(err, &ae) && ae.permanent
}

// runShard drives one shard to completion: a primary chain of attempts
// (watermark-resumed retries with backoff), plus — once the shard has run
// past the hedge trigger — a second independent chain racing it from the
// shard's start on another worker. The first chain to deliver the whole
// range wins and the loser is cancelled; only the winner's buffer — the
// shard's rows, newline-terminated, in plan order — is returned, so
// hedging never changes the merged bytes.
func (f *Fabric) runShard(ctx context.Context, spec grid.Spec, planRows int, sh grid.RowRange) ([]byte, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type out struct {
		rows []byte
		err  error
	}
	resc := make(chan out, 2) // buffered: a losing chain must never block
	launch := func() {
		go func() {
			rows, err := f.runChain(ctx, spec, planRows, sh)
			resc <- out{rows: rows, err: err}
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
				return o.rows, nil
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
// Every attempt appends its validated rows to the chain's one buffer.
func (f *Fabric) runChain(ctx context.Context, spec grid.Spec, planRows int, sh grid.RowRange) ([]byte, error) {
	var rows []byte
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
		left := sh.End - watermark
		w, err := f.pool.acquire(ctx, left, last)
		if err != nil {
			return nil, err
		}
		f.metrics.shardsDispatched.Add(1)
		f.metrics.workerDispatched.Add(w.url, 1)
		from := watermark
		watermark, err = f.fetch(ctx, w, spec, planRows, grid.RowRange{Start: watermark, End: sh.End}, &rows)
		f.pool.release(w, left, err == nil)
		if err == nil {
			return rows, nil
		}
		f.metrics.workerFailed.Add(w.url, 1)
		f.metrics.workerRows.Add(w.url, int64(watermark-from))
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

// fetch runs one HTTP attempt for rows [r.Start, r.End): POST /v1/sweep
// with the spec and the explicit row range, validating that the response
// streams exactly the requested rows in order. Validated lines are
// appended to *buf verbatim (the merged output is the workers' bytes,
// never re-encoded); a line that fails its check is cut back off, so
// *buf only ever holds whole validated rows. It returns the new
// watermark — r.Start plus the validated rows — and nil only when the
// whole range arrived.
//
// The worker's extent headers must agree with the coordinator: a
// X-Sweep-Plan-Rows other than planRows means the worker compiled a
// different plan, and a X-Sweep-Rows other than the range's size means
// it is about to stream the wrong rows. Either is a worker fault, retried
// elsewhere like a dead stream. So is a line longer than maxLineBytes:
// the coordinator never buffers more than that of one unterminated line.
func (f *Fabric) fetch(ctx context.Context, w *worker, spec grid.Spec, planRows int, r grid.RowRange, buf *[]byte) (int, error) {
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
		start := len(*buf)
		if err := readLine(rd, buf); err != nil {
			*buf = (*buf)[:start]
			if ctx.Err() != nil {
				return want, ctx.Err()
			}
			return want, &attemptError{msg: fmt.Sprintf(
				"%s: stream died at row %d of [%d,%d): %v", w.url, want, r.Start, r.End, err), cause: err}
		}
		line := (*buf)[start:]
		probe, err := probeLine(line)
		if err == nil && probe.row && probe.index == want {
			if want == r.Start {
				// The first row sizes the rest of the range, with an
				// eighth to spare, so the buffer grows about once per
				// attempt. The per-row guess is capped: a long first line
				// cannot make the coordinator reserve rows × maxLineBytes.
				*buf = slices.Grow(*buf, (r.Rows()-1)*min(len(line), rowReserveBytes)*9/8)
			}
			want++
			continue
		}
		*buf = (*buf)[:start]
		switch {
		case err != nil:
			return want, &attemptError{msg: fmt.Sprintf("%s: undecodable stream line: %v", w.url, err)}
		case !probe.row:
			// Terminal in-band error: the worker's run failed mid-stream.
			return want, attemptFromInbandError(w.url, probe.detail)
		default:
			return want, &attemptError{msg: fmt.Sprintf(
				"%s: stream discontinuity: got row %d, want %d", w.url, probe.index, want)}
		}
	}
	f.metrics.workerRows.Add(w.url, int64(r.Rows()))
	return want, nil
}

// maxLineBytes bounds one stream line, newline included: a row echoes
// part of its spec, and a spec arrives in a request body capped at 1 MiB
// (httpapi's default MaxBodyBytes), so no honest row comes near it.
// rowReserveBytes caps the per-row size fetch reserves ahead.
const (
	maxLineBytes    = 1 << 20
	rowReserveBytes = 4 << 10
)

// errLineTooLong fails an attempt whose worker streamed a line past
// maxLineBytes.
var errLineTooLong = fmt.Errorf("line longer than %d bytes", maxLineBytes)

// readLine appends the next line, newline included, to *buf, reading
// it straight out of rd's buffer. A line that does not end before
// maxLineBytes, or before the stream does, is an error; what was
// appended of it is left for the caller to cut back.
func readLine(rd *bufio.Reader, buf *[]byte) error {
	n := 0
	for {
		frag, err := rd.ReadSlice('\n')
		if n += len(frag); n > maxLineBytes {
			return errLineTooLong
		}
		*buf = append(*buf, frag...)
		if err != bufio.ErrBufferFull {
			return err
		}
	}
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
