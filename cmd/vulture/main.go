// Command vulture is the continuous verification and load harness: it
// generates seeded-random valid grid specs (grid.RandomSpec), submits
// them to a live backupd or sweepfront over HTTP, and cross-checks every
// NDJSON response three ways —
//
//  1. byte equality against a local in-process grid.Runner evaluation
//     (cold run, plus a warm repeat that must reproduce the cold bytes),
//  2. the metamorphic invariants (perf is a fraction; perf monotone in
//     the outage for UPS-only monotone-trajectory rows; sizing cost
//     monotone and feasibility antitone in the outage),
//  3. /metrics deltas consistent with the warm/cold split (backupd: a
//     warm repeat adds no cache misses and serves the cold run's events
//     as hits; sweepfront: each run merges exactly the plan's rows).
//
// With -store-dir the harness attaches a persistent result store to the
// loopback target and extends the checks end to end: the warm repeat of
// a fully stored plan must add zero store recomputes and at least one
// store hit per row, and GET /v1/results coordinate queries must read
// back a sample of the just-streamed rows byte-for-byte
// (read-your-writes over the store's query surface).
//
// After verification it replays the verified specs at controlled
// concurrency through a token-bucket rate limiter (internal/loadgen),
// byte-checking every response under load, and reports p50/p99/p999
// latency, throughput, and an error-budget verdict. Any check or SLO
// violation exits non-zero, so `make vulture-smoke` is an end-to-end
// regression gate.
//
//	# deterministic smoke against one in-process worker
//	vulture -loopback 1 -seed 7 -specs 6 -load-requests 32
//
//	# three loopback workers behind an in-process sweepfront coordinator
//	vulture -loopback 3 -seed 7 -specs 4
//
//	# soak a live deployment for an hour at 50 req/s
//	vulture -target http://backupd:8080 -servers 64 -duration 1h -rate 50
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"backuppower/internal/fabric"
	"backuppower/internal/grid"
	"backuppower/internal/loadgen"
	"backuppower/internal/resultstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vulture", flag.ContinueOnError)
	fs.SetOutput(stderr)

	target := fs.String("target", "", "base URL of a live backupd or sweepfront (/v1/sweep + /metrics)")
	loopback := fs.Int("loopback", 0, "run against N in-process workers instead of -target (1 = single backupd, >1 = sweepfront over N workers)")
	servers := fs.Int("servers", 8, "default cluster size for specs without a servers axis (must match the target's)")
	seed := fs.Int64("seed", 1, "random-spec generator seed (a run is a pure function of it)")
	specs := fs.Int("specs", 8, "number of random specs to verify")
	duration := fs.Duration("duration", 0, "soak mode: keep verifying new specs until this elapses (overrides -specs)")
	loadRequests := fs.Int("load-requests", 0, "load phase: replay verified specs this many times (0 = skip the load phase)")
	concurrency := fs.Int("concurrency", 4, "load-phase worker count")
	rate := fs.Float64("rate", 0, "load-phase request rate cap, req/s across all workers (0 = unlimited)")
	burst := fs.Int("burst", 1, "load-phase token bucket depth")
	sloP50 := fs.Duration("slo-p50", 0, "fail if load-phase p50 latency exceeds this (0 = ungated)")
	sloP99 := fs.Duration("slo-p99", 0, "fail if load-phase p99 latency exceeds this (0 = ungated)")
	sloP999 := fs.Duration("slo-p999", 0, "fail if load-phase p999 latency exceeds this (0 = ungated)")
	maxErrorRate := fs.Float64("max-error-rate", 0, "fail if the load-phase error rate exceeds this (0 = no errors allowed, negative = ungated)")
	requestTimeout := fs.Duration("request-timeout", 60*time.Second, "per-request deadline for verification and load requests")
	noMetricsCheck := fs.Bool("no-metrics-check", false, "skip the /metrics delta check (required when other traffic shares the target)")
	storeDir := fs.String("store-dir", "",
		"attach a persistent result store to the -loopback target (adds store-delta and /v1/results read-your-writes checks)")
	verbose := fs.Bool("v", false, "log each verified spec")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*target == "") == (*loopback == 0) {
		fmt.Fprintln(stderr, "vulture: give exactly one of -target or -loopback")
		return 2
	}
	if *storeDir != "" && *loopback == 0 {
		fmt.Fprintln(stderr, "vulture: -store-dir requires -loopback (point a stored -target at its own -store-dir instead)")
		return 2
	}
	if *specs < 1 && *duration <= 0 {
		fmt.Fprintln(stderr, "vulture: -specs must be >= 1 (or use -duration)")
		return 2
	}

	var store resultstore.Store
	if *storeDir != "" {
		disk, err := resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "vulture: -store-dir: %v\n", err)
			return 1
		}
		store = disk
		// The loopback workers are in-process, so attaching the store to
		// the process-global row store covers them and the checker's local
		// runner alike — every pathway the harness compares reads and
		// writes the same store.
		grid.SetRowStore(store)
		defer func() {
			grid.SetRowStore(nil)
			store.Close()
		}()
	}

	base := *target
	if *loopback > 0 {
		url, cleanup, err := startLoopback(*loopback, *servers, *concurrency, store)
		if err != nil {
			fmt.Fprintf(stderr, "vulture: %v\n", err)
			return 1
		}
		defer cleanup()
		base = url
	}

	logf := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(stderr, "vulture: "+format+"\n", args...)
		}
	}
	c := newChecker(base, *servers, *requestTimeout, !*noMetricsCheck, logf)
	fmt.Fprintf(stdout, "vulture: target %s (%s), seed %d, default servers %d\n", base, c.kind, *seed, *servers)
	if !c.metricsCheck {
		fmt.Fprintln(stdout, "vulture: metrics-delta check disabled")
	}

	// Verification phase: every generated spec must pass all checks.
	// Failures are reported and counted, not fatal — one bad spec should
	// not hide others in the same run.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(*seed))
	bounds := grid.DefaultBounds()
	start := time.Now()
	var verified []verifiedSpec
	checked, failed, totalRows := 0, 0, 0
	for i := 0; ; i++ {
		if *duration > 0 {
			if time.Since(start) >= *duration {
				break
			}
		} else if i >= *specs {
			break
		}
		spec := grid.RandomSpec(rng, bounds)
		vs, err := c.checkSpec(ctx, spec)
		checked++
		totalRows += vs.rows
		if err != nil {
			failed++
			specJSON, _ := jsonOneLine(spec)
			fmt.Fprintf(stderr, "vulture: spec %d (seed %d): %v\n  spec: %s\n", i, *seed, err, specJSON)
			continue
		}
		logf("spec %d ok: %d rows, %d response bytes", i, vs.rows, len(vs.expected))
		verified = append(verified, vs)
	}
	fmt.Fprintf(stdout, "vulture: verified %d/%d specs (%d rows) in %v: byte-equality, metamorphic, metrics checks\n",
		checked-failed, checked, totalRows, time.Since(start).Round(time.Millisecond))

	exit := 0
	if failed > 0 {
		fmt.Fprintf(stderr, "vulture: %d of %d specs failed verification\n", failed, checked)
		exit = 1
	}

	// Load phase: replay the verified specs round-robin, byte-checking
	// every response — continuous verification under load — and gate the
	// latency tail and error budget.
	if *loadRequests > 0 && len(verified) > 0 {
		var mismatches atomic.Int64
		rep, err := loadgen.Run(ctx, loadgen.Config{
			Requests:    *loadRequests,
			Concurrency: *concurrency,
			Rate:        *rate,
			Burst:       *burst,
		}, func(ctx context.Context, seq int) error {
			vs := verified[seq%len(verified)]
			body, err := c.postSweep(ctx, vs.reqBody)
			if err != nil {
				return err
			}
			if derr := firstDiff(body, vs.expected, "load response", "verified bytes"); derr != nil {
				mismatches.Add(1)
				return derr
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(stderr, "vulture: load phase: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "vulture: load %d requests x %d workers: p50 %v p99 %v p999 %v max %v, %.1f req/s, %d errors\n",
			rep.Requests, *concurrency, rep.P50, rep.P99, rep.P999, rep.Max, rep.Throughput, rep.Errors)
		if n := mismatches.Load(); n > 0 {
			fmt.Fprintf(stderr, "vulture: %d load responses diverged from the verified bytes\n", n)
			exit = 1
		}
		slo := loadgen.SLO{P50: *sloP50, P99: *sloP99, P999: *sloP999, MaxErrorRate: *maxErrorRate}
		if violations := slo.Check(rep); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(stderr, "vulture: SLO violation: %s\n", v)
			}
			exit = 1
		} else {
			fmt.Fprintln(stdout, "vulture: SLO ok")
		}
	} else if *loadRequests > 0 {
		fmt.Fprintln(stderr, "vulture: load phase skipped: no spec survived verification")
		exit = 1
	}
	return exit
}

// startLoopback builds an in-process target: one backupd worker targeted
// directly (n == 1), or n workers behind an in-process sweepfront
// coordinator serving fabric.Handler on an ephemeral loopback port. Both
// speak real HTTP over real sockets, so the harness exercises the exact
// serving path a deployment would.
func startLoopback(n, servers, concurrency int, store resultstore.Store) (string, func(), error) {
	inflight := 4 * concurrency
	if inflight < 64 {
		inflight = 64 // headroom so the load phase never trips 429s
	}
	urls, stopWorkers, err := fabric.Loopback(n, fabric.LoopbackConfig{
		Servers:     servers,
		MaxInflight: inflight,
		Store:       store,
	})
	if err != nil {
		return "", nil, err
	}
	if n == 1 {
		return urls[0], stopWorkers, nil
	}
	f, err := fabric.New(fabric.Options{Workers: urls, DefaultServers: servers, Store: store})
	if err != nil {
		stopWorkers()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopWorkers()
		return "", nil, err
	}
	srv := &http.Server{Handler: f.Handler()}
	go srv.Serve(ln)
	cleanup := func() {
		srv.Close()
		stopWorkers()
	}
	return "http://" + ln.Addr().String(), cleanup, nil
}

func jsonOneLine(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}
