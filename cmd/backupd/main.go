// Command backupd serves the evaluation framework over JSON/HTTP: the
// long-running counterpart to the one-shot CLIs, answering
// config x technique x workload x outage what-if queries per request
// while the shared scenario cache warms across them.
//
// Endpoints (see internal/httpapi): POST /v1/evaluate, /v1/size,
// /v1/best, /v1/sweep (streamed NDJSON grids, bounded by
// -max-sweep-rows); GET /v1/techniques, /v1/workloads, /healthz,
// /metrics, and (with -pprof) /debug/pprof/.
//
// Flags: -addr sets the listen address, -servers the modeled datacenter
// scale, -parallel the default sweep worker-pool width per request,
// -max-inflight the bound on concurrent evaluations (past it requests
// get 429 + Retry-After), -timeout the per-request evaluation deadline.
// -store-dir attaches a persistent result store: evaluations and sweep
// rows survive restarts, warm reruns evaluate nothing they have seen,
// and GET /v1/results serves filter/aggregate queries over stored rows.
// SIGINT/SIGTERM drain gracefully: the listener stops, in-flight
// requests finish (up to the drain grace), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
	"backuppower/internal/resultstore"
)

// defaultWorkerID is the hostname when the kernel will give it up, else a
// fixed placeholder — the flag exists so pool operators can pick stable
// names, not so the default is globally unique.
func defaultWorkerID() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "backupd"
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	servers := flag.Int("servers", 64, "number of servers in the modeled datacenter")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"default sweep worker-pool width per request (1 = serial)")
	maxInflight := flag.Int("max-inflight", 4*runtime.GOMAXPROCS(0),
		"maximum concurrently evaluating requests (excess gets 429)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request evaluation deadline")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown grace for in-flight requests")
	maxSweepRows := flag.Int("max-sweep-rows", grid.DefaultMaxRows,
		"maximum rows one /v1/sweep grid may expand to")
	workerID := flag.String("worker-id", defaultWorkerID(),
		"identity echoed as X-Backupd-Worker on sweep responses (for sweepfront pools)")
	storeDir := flag.String("store-dir", "",
		"persistent result store directory (enables GET /v1/results and warm restarts)")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/")
	flag.Parse()

	if *servers < 1 {
		log.Fatalf("backupd: -servers %d must be >= 1", *servers)
	}
	var store resultstore.Store
	if *storeDir != "" {
		disk, err := resultstore.Open(*storeDir)
		if err != nil {
			log.Fatalf("backupd: -store-dir: %v", err)
		}
		store = disk
		grid.SetRowStore(store)
		defer store.Close()
	}
	api, err := httpapi.New(httpapi.Config{
		Framework:    core.New(*servers),
		MaxInflight:  *maxInflight,
		Timeout:      *timeout,
		Width:        *parallel,
		EnablePprof:  *pprofOn,
		MaxSweepRows: *maxSweepRows,
		WorkerID:     *workerID,
		Store:        store,
	})
	if err != nil {
		log.Fatalf("backupd: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("backupd: serving %d-server framework on %s (max-inflight %d, timeout %v, width %d)",
			*servers, *addr, *maxInflight, *timeout, *parallel)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("backupd: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("backupd: signal received, draining for up to %v", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("backupd: drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("backupd: drained, exiting")
	}
}
