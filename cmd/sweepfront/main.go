// Command sweepfront is the distributed sweep coordinator: it compiles a
// declarative grid spec (the same JSON cmd/gridrun and POST /v1/sweep
// take), splits the plan into contiguous row-range shards, fans them out
// over HTTP to a pool of backupd workers, and writes the merged NDJSON
// stream to stdout — byte-identical to a single-node run of the same
// spec, at any worker count and through worker failures.
//
//	# one-shot against a static pool
//	sweepfront -workers http://a:8080,http://b:8080 -spec fig5.json
//
//	# three in-process loopback workers (no external daemons)
//	sweepfront -loopback 3 -spec - < fig5.json
//
//	# serving frontend: forward /v1/sweep across the pool
//	sweepfront -serve -addr :8081 -workers http://a:8080,http://b:8080
//
// -shard-rows sets the target shard size (default: about four shards per
// worker, and never under 64 rows; cuts are even and stay aligned to
// outage-batch units), -max-inflight-per-worker the per-worker request
// bound, -max-retries the re-dispatch budget per shard chain, and
// -hedge-after the straggler hedge trigger (0 = adaptive from the
// observed shard-latency median; negative disables hedging). None of
// them changes the output bytes.
//
// Serve mode runs backupd's own internal/httpapi server with the fabric
// as its sweep backend, so POST /v1/sweep keeps backupd's contract: the
// same body, typed 400s before any worker is contacted, 429 past the
// admission bound, a -timeout deadline (30s when 0), and in-band error
// lines once streaming (fabric_failed when the pool cannot deliver a
// shard). The other backupd routes are answered locally. GET /metrics is
// one document: backupd's members plus rows_merged, shard_latency,
// shards and workers. SIGINT/SIGTERM drain like backupd.
//
// In one-shot mode -timeout bounds the run and -metrics-addr serves the
// same GET /metrics while it is in flight. -store-dir attaches a
// persistent result store: loopback workers consult and fill it, serve
// mode mounts GET /v1/results over it, and its counters join /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"backuppower/internal/fabric"
	"backuppower/internal/grid"
	"backuppower/internal/resultstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepfront", flag.ContinueOnError)
	fs.SetOutput(stderr)

	workersFlag := fs.String("workers", "", "comma-separated backupd base URLs (the static worker pool)")
	loopback := fs.Int("loopback", 0, "start N in-process loopback workers instead of -workers")
	loopbackWidth := fs.Int("loopback-width", 0, "sweep width per loopback worker (0 = GOMAXPROCS, 1 = serial)")
	servers := fs.Int("servers", 64, "default cluster size for specs without a servers axis (must match the workers')")
	specPath := fs.String("spec", "", `JSON spec file ("-" = stdin); required unless -serve`)
	shardRows := fs.Int("shard-rows", 0, "target rows per shard (0 = max(64, plan rows / (4 × workers)); cuts stay batch-unit aligned)")
	maxRetries := fs.Int("max-retries", 0, "re-dispatch budget per shard chain (0 = default, negative = none)")
	maxInflight := fs.Int("max-inflight-per-worker", 0, "concurrent shard requests per worker (0 = default)")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge straggler shards after this long (0 = adaptive, negative = off)")
	width := fs.Int("width", 0, "per-request sweep width asked of workers (0 = worker default)")
	timeout := fs.Duration("timeout", 0, "run deadline; in -serve mode the per-request deadline (0 = none; 30s in -serve mode)")
	out := fs.String("o", "", "write merged NDJSON to a file instead of stdout")
	metricsAddr := fs.String("metrics-addr", "", "also serve GET /metrics on this address during the run")
	serve := fs.Bool("serve", false, "run as a serving frontend: POST /v1/sweep fans out across the pool")
	addr := fs.String("addr", ":8081", "listen address for -serve")
	storeDir := fs.String("store-dir", "",
		"persistent result store directory (warm reruns skip stored rows; serves GET /v1/results)")
	verbose := fs.Bool("verbose", false, "print the metrics document to stderr when a one-shot run finishes")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec grid.Spec
	if !*serve {
		if *specPath == "" {
			fmt.Fprintln(stderr, "sweepfront: -spec is required (or use -serve)")
			return 2
		}
		if err := grid.ReadSpec(*specPath, &spec); err != nil {
			fmt.Fprintf(stderr, "sweepfront: %v\n", err)
			return 2
		}
	}

	var store resultstore.Store
	if *storeDir != "" {
		disk, err := resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "sweepfront: -store-dir: %v\n", err)
			return 1
		}
		store = disk
		// The coordinator's store feeds this process's row-store global:
		// loopback workers are in-process, so they consult and fill the
		// same store the coordinator serves reads from. A remote -workers
		// pool persists nothing here beyond what the coordinator itself
		// evaluates (remote workers attach their own -store-dir).
		grid.SetRowStore(store)
		defer store.Close()
	}

	var workerURLs []string
	var stopPool func()
	switch {
	case *loopback > 0 && *workersFlag != "":
		fmt.Fprintln(stderr, "sweepfront: give either -workers or -loopback, not both")
		return 2
	case *loopback > 0:
		var err error
		workerURLs, stopPool, err = fabric.Loopback(*loopback, fabric.LoopbackConfig{
			Servers: *servers,
			Width:   *loopbackWidth,
			Store:   store,
		})
		if err != nil {
			fmt.Fprintf(stderr, "sweepfront: %v\n", err)
			return 1
		}
		defer stopPool()
	default:
		for _, u := range strings.Split(*workersFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerURLs = append(workerURLs, u)
			}
		}
		if len(workerURLs) == 0 {
			fmt.Fprintln(stderr, "sweepfront: -workers or -loopback is required")
			return 2
		}
	}

	f, err := fabric.New(fabric.Options{
		Workers:              workerURLs,
		ShardRows:            *shardRows,
		MaxRetries:           *maxRetries,
		MaxInflightPerWorker: *maxInflight,
		HedgeAfter:           *hedgeAfter,
		DefaultServers:       *servers,
		WorkerWidth:          *width,
		Store:                store,
		Timeout:              *timeout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "sweepfront: %v\n", err)
		return 2
	}

	if *serve {
		return serveMode(f, *addr, stderr)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", f.Handler())
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go msrv.ListenAndServe()
		defer msrv.Close()
	}

	w := io.Writer(stdout)
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "sweepfront: %v\n", err)
			return 1
		}
		defer of.Close()
		w = of
	}

	if err := f.Run(ctx, spec, w); err != nil {
		fmt.Fprintf(stderr, "sweepfront: %v\n", err)
		var fe *grid.FieldError
		if errors.As(err, &fe) {
			return 2
		}
		return 1
	}
	if *verbose {
		f.Metrics().Write(stderr)
	}
	return 0
}

// serveMode runs the coordinator as a long-lived frontend over
// fabric.Handler until SIGINT or SIGTERM, then drains like backupd: the
// listener stops and in-flight requests finish within the grace.
func serveMode(f *fabric.Fabric, addr string, stderr io.Writer) int {
	srv := &http.Server{Addr: addr, Handler: f.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("sweepfront: serving on %s", addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "sweepfront: %v\n", err)
		return 1
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("sweepfront: signal received, draining for up to %v", drainGrace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainGrace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("sweepfront: drain incomplete: %v", err)
			return 1
		}
		log.Printf("sweepfront: drained, exiting")
		return 0
	}
}

// drainGrace bounds how long serve mode waits for in-flight requests
// after a shutdown signal (backupd's -drain default).
const drainGrace = 15 * time.Second
