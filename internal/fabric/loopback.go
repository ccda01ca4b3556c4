package fabric

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/httpapi"
	"backuppower/internal/resultstore"
)

// LoopbackConfig parameterizes an in-process worker pool.
type LoopbackConfig struct {
	// Servers is each worker's modeled datacenter scale (0 = 64,
	// backupd's default — and it must match the coordinator's
	// DefaultServers for every node to compile the same plan).
	Servers int
	// Width is each worker's default sweep pool width (0 = GOMAXPROCS).
	// Width 1 makes each worker serial, so the fabric's fan-out is the
	// only parallelism — the configuration the scaling benchmarks use.
	Width int
	// MaxInflight bounds each worker's concurrent evaluations
	// (0 = backupd's default).
	MaxInflight int
	// Timeout is each worker's per-request deadline (0 = 30s default).
	Timeout time.Duration
	// Store, when set, is mounted on each worker (GET /v1/results plus
	// store counters on /metrics). Loopback workers are in-process, so a
	// store attached to the process-global row store (grid.SetRowStore)
	// is already shared by all of them; this field only adds the serving
	// surfaces.
	Store resultstore.Store
}

// Loopback starts n in-process backupd workers on ephemeral loopback
// ports — real HTTP over real sockets, just without separate processes —
// and returns their base URLs plus a stop function. It exists so the
// whole fabric runs under `go test -race` and `make fabric-equivalence`
// with nothing external, and so cmd/sweepfront -loopback can demonstrate
// the fabric on one machine.
//
// The workers share this process's scenario memo cache (it is
// process-global), which distributed pools do not; that warms repeated
// rows faster but changes no output bytes.
func Loopback(n int, cfg LoopbackConfig) (urls []string, stop func(), err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("fabric: loopback pool needs n >= 1, got %d", n)
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 64
	}
	var servers []*http.Server
	stop = func() {
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.Shutdown(ctx)
			cancel()
		}
	}
	for i := 0; i < n; i++ {
		api, aerr := httpapi.New(httpapi.Config{
			Framework:   core.New(cfg.Servers),
			Width:       cfg.Width,
			MaxInflight: cfg.MaxInflight,
			Timeout:     cfg.Timeout,
			WorkerID:    fmt.Sprintf("loopback-%d", i),
			Store:       cfg.Store,
		})
		if aerr != nil {
			stop()
			return nil, nil, aerr
		}
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			stop()
			return nil, nil, fmt.Errorf("fabric: loopback listen: %w", lerr)
		}
		srv := &http.Server{Handler: api.Handler()}
		servers = append(servers, srv)
		urls = append(urls, "http://"+ln.Addr().String())
		go srv.Serve(ln)
	}
	return urls, stop, nil
}
