package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Outcome is what the generator records of one request.
type Outcome struct {
	Due, Sent, Done time.Time
	// CPU is the program CPU time the request took (closed loops only).
	CPU    time.Duration
	Status int
	Digest Digest
	Lines  int
	// ErrLine is true when the last NDJSON line is an in-band error.
	ErrLine bool
	Err     error
}

// OK reports whether the request completed with a 200 and a clean body.
func (o Outcome) OK() bool { return o.Err == nil && o.Status == http.StatusOK && !o.ErrLine }

// newClient returns an HTTP client that holds at most conns loopback
// connections open.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// bodyScanner digests a response body as it streams, counting lines and
// remembering how the last line starts.
type bodyScanner struct {
	crc      uint32
	n        int64
	lines    int
	lineHead []byte // first bytes of the current line
	lastHead []byte // first bytes of the last completed line
}

var errorLinePrefix = []byte(`{"error"`)

func (s *bodyScanner) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.n += int64(len(p))
	for b := p; ; {
		i := bytes.IndexByte(b, '\n')
		seg := b
		if i >= 0 {
			seg = b[:i]
		}
		if need := len(errorLinePrefix) - len(s.lineHead); need > 0 {
			s.lineHead = append(s.lineHead, seg[:min(need, len(seg))]...)
		}
		if i < 0 {
			break
		}
		s.lines++
		s.lastHead = append(s.lastHead[:0], s.lineHead...)
		s.lineHead = s.lineHead[:0]
		b = b[i+1:]
	}
	return len(p), nil
}

// Send POSTs req and digests the response.
func Send(ctx context.Context, c *http.Client, base string, req Request, buf []byte) Outcome {
	var o Outcome
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		o.Err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		o.Err = err
		return o
	}
	defer resp.Body.Close()
	o.Status = resp.StatusCode
	var sc bodyScanner
	if _, err := io.CopyBuffer(&sc, resp.Body, buf); err != nil {
		o.Err = err
	}
	o.Digest = Digest{Len: sc.n, Sum: sc.crc}
	o.Lines = sc.lines
	o.ErrLine = bytes.HasPrefix(sc.lastHead, errorLinePrefix)
	return o
}

// OpenLoop sends reqs[i] when it falls due at start + i/rate, over at
// most conns connections. A request that finds every connection busy
// waits, and its latency counts the wait: latency runs from the due time.
func OpenLoop(ctx context.Context, c *http.Client, base string, reqs []Request, rate float64, conns int) []Outcome {
	out := make([]Outcome, len(reqs))
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				sent := time.Now()
				o := Send(ctx, c, base, reqs[i], buf)
				o.Due, o.Sent, o.Done = due, sent, time.Now()
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's timers park in epoll with millisecond resolution, which
// would make an open loop at thousands of requests per second send each
// request up to a millisecond late; nanosleep wakes within tens of
// microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// ClosedLoop sends reqs one after another from a single client. When cpu
// is not nil it is read before and after every request, and each Outcome
// carries the program CPU time its request took.
func ClosedLoop(ctx context.Context, c *http.Client, base string, reqs []Request, cpu func() (time.Duration, error)) ([]Outcome, error) {
	out := make([]Outcome, len(reqs))
	buf := make([]byte, 64<<10)
	var last time.Duration
	if cpu != nil {
		var err error
		if last, err = cpu(); err != nil {
			return nil, err
		}
	}
	for i, r := range reqs {
		sent := time.Now()
		o := Send(ctx, c, base, r, buf)
		o.Due, o.Sent, o.Done = sent, sent, time.Now()
		if cpu != nil {
			now, err := cpu()
			if err != nil {
				return nil, err
			}
			o.CPU, last = now-last, now
		}
		out[i] = o
	}
	return out, nil
}

// Latencies returns each request's latency in milliseconds, from its due
// time to its last byte. A failed request has an infinite latency: it
// misses every limit.
func Latencies(out []Outcome) []float64 {
	l := make([]float64, len(out))
	for i, o := range out {
		if !o.OK() {
			l[i] = math.Inf(1)
			continue
		}
		l[i] = float64(o.Done.Sub(o.Due)) / float64(time.Millisecond)
	}
	return l
}

// Quantile returns the nearest-rank q-quantile of v (which it sorts).
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

// Median returns the median of v without reordering it.
func Median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Verify counts the failed requests of one timed pass: those answerError
// rejects, and digest mismatches against the reference for the requests
// check selects.
func Verify(reqs []Request, out []Outcome, ref *Reference, check func(i int) bool) (failed int, err error) {
	for i, o := range out {
		bad := answerError(reqs[i], o) != nil
		if !bad && check(i) {
			want, rerr := ref.Digest(reqs[i])
			if rerr != nil {
				return 0, rerr
			}
			bad = want != o.Digest
		}
		if bad {
			failed++
		}
	}
	return failed, nil
}

// answerError says what is wrong with an answer without looking at its
// bytes: a transport error, a non-200 status, an in-band error line, or
// a sweep with the wrong row count.
func answerError(req Request, o Outcome) error {
	switch {
	case o.Err != nil:
		return o.Err
	case o.Status != http.StatusOK:
		return fmt.Errorf("status %d", o.Status)
	case o.ErrLine:
		return errors.New("in-band error line")
	case req.Kind == "sweep" && o.Lines != req.Rows:
		return fmt.Errorf("%d rows, want %d", o.Lines, req.Rows)
	}
	return nil
}

// firstFailure describes the first failed outcome, for the log.
func firstFailure(reqs []Request, out []Outcome) error {
	for i, o := range out {
		if err := answerError(reqs[i], o); err != nil {
			return fmt.Errorf("request %d (%s): %w", i, reqs[i].Path, err)
		}
	}
	return errors.New("a response differs from its reference")
}
