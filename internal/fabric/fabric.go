// Package fabric is the distributed sweep coordinator: it takes one
// declarative grid.Spec, compiles it into the same ordered plan a single
// node would run, splits the plan into contiguous row-range shards
// (aligned so the outage-axis batch units of PR 6 are never cut), fans
// the shards out over HTTP POST /v1/sweep to a static pool of backupd
// workers, and merges the returned NDJSON streams back in plan order.
//
// The contract is the one every layer below already pins: the merged
// byte stream is identical to a single-node run — at any worker count,
// any shard size, any completion order, and across worker failures.
// Three mechanisms make that cheap to guarantee:
//
//   - Shards are contiguous [Start, End) spans of the plan, and every
//     row carries its plan index, so merging is ordering (concatenate
//     shard buffers in Start order), never recomputation. The merger
//     holds completed shards until their turn comes.
//
//   - A worker's stream is validated row by row: indices must run
//     contiguously from the requested start. The validated prefix is a
//     watermark; when a worker dies mid-shard, rows past the watermark
//     cannot exist (they were never validated) and the chain re-dispatches
//     the narrower range [watermark, End) — so the merged stream can
//     neither duplicate nor skip a row.
//
//   - Straggler shards are hedged: after a latency quantile (or a fixed
//     -hedge-after), a second independent chain races the first from the
//     shard's beginning, and the first chain to complete the whole range
//     wins; the loser is cancelled. Only the winner's buffer is merged,
//     so hedging cannot affect the output bytes either.
//
// Robustness is the perf story's other half: bounded per-worker inflight
// with least-outstanding-rows (weighted) worker selection, bounded
// retries with exponential backoff that honors Retry-After from 429s,
// and a consecutive-failure detector that quarantines flapping workers.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
	"backuppower/internal/resultstore"
)

// Options parameterize a Fabric.
type Options struct {
	// Workers is the static pool: base URLs of backupd instances
	// ("http://host:8080"). Required, at least one.
	Workers []string

	// Client is the HTTP client shard requests go through. Default is a
	// dedicated client with no overall timeout (per-run deadlines come
	// from the caller's context; a stuck stream is handled by hedging
	// and re-dispatch, not a client-wide timeout).
	Client *http.Client

	// ShardRows is the target rows per shard. 0 scales it with the plan:
	// max(grid.DefaultShardRows, rows / (4 × workers)), so a large plan
	// goes out as a few shards per worker rather than dozens of small
	// requests. Cuts are aligned to batch-unit boundaries either way.
	ShardRows int

	// MaxRetries bounds re-dispatches per chain after the first attempt
	// (0 = DefaultMaxRetries; negative means no retries).
	MaxRetries int

	// MaxInflightPerWorker bounds concurrent shard requests against one
	// worker (0 = DefaultMaxInflightPerWorker). The dispatch window —
	// how many shards run at once — is workers × this bound.
	MaxInflightPerWorker int

	// HedgeAfter is how long a shard may run before a second chain is
	// dispatched against another worker. 0 means adaptive: once enough
	// shard latencies are recorded, hedge at HedgeQuantileFactor × the
	// observed median. Negative disables hedging.
	HedgeAfter time.Duration

	// DefaultServers is the cluster size used when the spec has no
	// servers axis; it must match the workers' -servers so every node
	// compiles the identical plan (0 = 64, backupd's default scale).
	DefaultServers int

	// MaxRows caps the compiled plan size (0 = grid.DefaultMaxRows).
	MaxRows int

	// WorkerWidth is the per-request sweep width workers are asked for
	// (0 = worker default). Output bytes are identical at any width.
	WorkerWidth int

	// Store, when set, is the coordinator's persistent result store
	// (-store-dir): the Handler surface mounts GET /v1/results over it
	// and adds its counters to /metrics. Attaching the store to the
	// evaluation pathway (grid.SetRowStore on the workers) is the
	// caller's job.
	Store resultstore.Store

	// Timeout is the Handler surface's per-request deadline, the cap on a
	// request's own timeout (0 = httpapi's default, 30s).
	Timeout time.Duration

	// QuarantineAfter is how many consecutive failures sideline a worker;
	// QuarantineFor how long (0 = DefaultQuarantineAfter / -For). A fully
	// quarantined pool still dispatches — quarantine is a preference,
	// not a wall, so a lone flaky worker cannot deadlock the run.
	QuarantineAfter int
	QuarantineFor   time.Duration

	// sleep is the backoff/Retry-After sleeper, a seam so tests can
	// observe waits instead of paying them. nil means a real sleep that
	// aborts on context cancellation.
	sleep func(context.Context, time.Duration) error
}

// Defaults for the zero-valued knobs.
const (
	DefaultMaxRetries           = 3
	DefaultMaxInflightPerWorker = 2
	DefaultQuarantineAfter      = 2
	DefaultQuarantineFor        = 2 * time.Second

	// HedgeQuantileFactor scales the observed median shard latency into
	// the adaptive hedge trigger, and hedgeMinSamples is how many shard
	// completions the adaptive trigger needs before it arms.
	HedgeQuantileFactor = 3
	hedgeMinSamples     = 8
	hedgeMinDelay       = 5 * time.Millisecond
)

// Fabric coordinates sharded sweeps over one worker pool. It is safe for
// concurrent use; each Run is independent apart from the shared pool
// bounds and metrics.
type Fabric struct {
	opt     Options
	pool    *pool
	metrics *Metrics
}

// New validates the options and builds a coordinator.
func New(opt Options) (*Fabric, error) {
	if len(opt.Workers) == 0 {
		return nil, errors.New("fabric: Options.Workers must name at least one backupd URL")
	}
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	if opt.MaxRetries == 0 {
		opt.MaxRetries = DefaultMaxRetries
	}
	if opt.MaxRetries < 0 {
		opt.MaxRetries = 0
	}
	if opt.MaxInflightPerWorker <= 0 {
		opt.MaxInflightPerWorker = DefaultMaxInflightPerWorker
	}
	if opt.DefaultServers <= 0 {
		opt.DefaultServers = 64
	}
	if opt.QuarantineAfter <= 0 {
		opt.QuarantineAfter = DefaultQuarantineAfter
	}
	if opt.QuarantineFor <= 0 {
		opt.QuarantineFor = DefaultQuarantineFor
	}
	if opt.sleep == nil {
		opt.sleep = func(ctx context.Context, d time.Duration) error {
			if d <= 0 {
				return ctx.Err()
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return &Fabric{
		opt:     opt,
		pool:    newPool(opt.Workers, opt.MaxInflightPerWorker, opt.QuarantineAfter, opt.QuarantineFor),
		metrics: newMetrics(opt.Workers),
	}, nil
}

// Metrics exposes the coordinator's own observability state: shard,
// merge and worker counters.
func (f *Fabric) Metrics() *Metrics { return f.metrics }

// MetricsSections makes the coordinator's counters members of the
// serving surface's /metrics document.
func (f *Fabric) MetricsSections() []httpapi.MetricsSection { return f.metrics.sections() }

// Handler returns the coordinator's serving surface, which cmd/sweepfront
// -serve mounts: backupd's httpapi server with this fabric as its sweep
// backend, so POST /v1/sweep keeps backupd's whole contract but fans the
// compiled plan out over the pool.
func (f *Fabric) Handler() http.Handler {
	api, err := httpapi.New(httpapi.Config{
		Framework:    core.New(f.opt.DefaultServers),
		Timeout:      f.opt.Timeout,
		MaxSweepRows: f.opt.MaxRows,
		Store:        f.opt.Store,
		Sweep:        f,
	})
	if err != nil {
		panic(err) // only a nil Framework is rejected
	}
	return api.Handler()
}

// shardOut is one completed shard on its way to the merger: its rows,
// newline-terminated and in plan order, in one buffer.
type shardOut struct {
	idx  int
	rows []byte
	err  error
}

// Run compiles the spec and runs it with RunPlan: the one-shot form
// cmd/sweepfront uses without -serve. It returns the compiler's typed
// *grid.FieldError for a rejected spec, before any worker is contacted.
func (f *Fabric) Run(ctx context.Context, spec grid.Spec, w io.Writer) error {
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: f.opt.DefaultServers, MaxRows: f.opt.MaxRows})
	if err != nil {
		return err
	}
	return f.RunPlan(ctx, spec, plan, len(plan.Points), w)
}

// RunPlan shards a plan compiled from spec, fans the shards out over the
// pool, and writes the merged NDJSON stream to w — byte-identical to a
// single-node run of the same rows. plan may be a row range of the full
// plan (grid.CompileRange): shards carry absolute indices, and planRows,
// the full plan's row count, is what every worker must report. Each
// shard reaches w, when its turn comes, in one Write; when w is an
// http.Flusher it is flushed after each merged shard. RunPlan returns
// the first unrecoverable error (a shard exhausting retries and hedges,
// context cancellation, or a write failure); on error the stream may be
// truncated at a row boundary but never contains a wrong, duplicate, or
// out-of-order row.
func (f *Fabric) RunPlan(ctx context.Context, spec grid.Spec, plan *grid.Plan, planRows int, w io.Writer) error {
	shards := plan.Shards(f.shardRows(len(plan.Points)))
	if len(shards) == 0 {
		return nil
	}
	flusher, _ := w.(http.Flusher)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Dispatch window: as many shards in flight as the pool can hold.
	// The window also bounds the merger's reorder buffer — a shard can
	// complete at most window-1 positions ahead of the next one due.
	// results is buffered to the full shard count so a completing shard
	// never blocks on the merger (and teardown can never deadlock).
	window := len(f.opt.Workers) * f.opt.MaxInflightPerWorker
	results := make(chan shardOut, len(shards))
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	feedDone := make(chan int, 1)
	go func() {
		launched := 0
		for i, sh := range shards {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				feedDone <- launched
				return
			}
			wg.Add(1)
			launched++
			go func(i int, sh grid.RowRange) {
				defer wg.Done()
				defer func() { <-sem }()
				rows, err := f.runShard(ctx, spec, planRows, sh)
				results <- shardOut{idx: i, rows: rows, err: err}
			}(i, sh)
		}
		feedDone <- launched
	}()

	// Merge in shard order regardless of completion order. On the first
	// unrecoverable error the run is cancelled and the remaining launched
	// shards are drained (their sends are buffered, so draining is just
	// counting them down).
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	pending := make(map[int]shardOut, window)
	next := 0
	launched, seen := -1, 0
	for launched < 0 || seen < launched {
		select {
		case n := <-feedDone:
			launched = n
		case out := <-results:
			seen++
			if out.err != nil {
				fail(fmt.Errorf("fabric: shard %d rows [%d,%d): %w",
					out.idx, shards[out.idx].Start, shards[out.idx].End, out.err))
				continue
			}
			if firstErr != nil {
				continue
			}
			pending[out.idx] = out
			for {
				o, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if _, err := w.Write(o.rows); err != nil {
					fail(fmt.Errorf("fabric: write merged stream: %w", err))
					break
				}
				f.metrics.rowsMerged.Add(int64(shards[next].Rows()))
				if flusher != nil {
					flusher.Flush()
				}
				next++
			}
		}
	}
	wg.Wait()
	if firstErr == nil && launched < len(shards) {
		// The feeder stopped early, which only cancellation can cause.
		firstErr = ctx.Err()
	}
	return firstErr
}

// shardRows is the target shard size for a plan of rows rows: the
// configured ShardRows, or else about four shards per worker, never
// fewer than grid.DefaultShardRows rows each. Four per worker keeps
// every worker's inflight slots busy and leaves the tail short enough to
// hedge, while a worker request still carries hundreds of rows.
func (f *Fabric) shardRows(rows int) int {
	if f.opt.ShardRows > 0 {
		return f.opt.ShardRows
	}
	return max(grid.DefaultShardRows, rows/(4*len(f.opt.Workers)))
}
