// Package httpapi exposes the evaluation framework over JSON/HTTP — the
// serving surface behind cmd/backupd and cmd/sweepfront -serve:
//
//	POST /v1/evaluate   one scenario: config x technique x workload x outage
//	POST /v1/size       min-cost UPS sizing for a technique (MinCostUPSCtx)
//	POST /v1/best       best technique behind a fixed config (BestForConfigCtx)
//	POST /v1/sweep      declarative grid spec -> streamed NDJSON rows (internal/grid)
//	GET  /v1/results    query stored sweep rows (internal/resultstore; -store-dir only)
//	GET  /v1/techniques registry of wire-exposed techniques and families
//	GET  /v1/workloads  registry of calibrated workloads
//	GET  /healthz       liveness
//	GET  /metrics       request/latency/cache counters (expvar-backed JSON)
//
// All requests against one Server share a single *core.Framework, so the
// process-wide scenario memo cache warms across requests: a repeated
// evaluation is a cache hit, not a re-simulation. Evaluation endpoints
// are bounded by a semaphore (429 + Retry-After past the bound), carry a
// per-request deadline wired into the framework's Ctx variants (504 on
// expiry), and honor a per-request sweep width via sweep.WithWidth —
// responses are byte-identical at any width and any interleaving.
//
// /v1/sweep has one contract on both daemons. Every body is decoded,
// validated and compiled here, so a rejected spec is a typed 400 before
// anything streams; only the compiled plan's execution differs. backupd
// runs it on its own grid.Runner; the coordinator's Config.Sweep backend
// (*fabric.Fabric) fans it out over workers and adds its shard and
// worker members to /metrics. A failure after the stream starts is a
// final in-band NDJSON error line.
package httpapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/grid"
	"backuppower/internal/resultstore"
	"backuppower/internal/sweep"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Framework is the shared evaluation framework (required).
	Framework *core.Framework

	// MaxInflight bounds concurrently evaluating requests; further
	// evaluation requests get 429 + Retry-After. Default 4x GOMAXPROCS.
	MaxInflight int

	// Timeout is the per-request evaluation deadline, and the cap on any
	// request-supplied timeout. Default 30s.
	Timeout time.Duration

	// Width is the default sweep worker-pool width per request (0 means
	// GOMAXPROCS); a request's width field overrides it downward or
	// upward without changing the response bytes.
	Width int

	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// MaxBodyBytes caps request body size. Default 1 MiB.
	MaxBodyBytes int64

	// MaxSweepRows caps how many rows one /v1/sweep grid may expand to
	// (before filtering). Default grid.DefaultMaxRows; a request's own
	// max_rows can tighten but never exceed it.
	MaxSweepRows int

	// WorkerID, when set, is echoed on sweep responses as the
	// X-Backupd-Worker header so a fabric coordinator (cmd/sweepfront)
	// can attribute shard streams to pool members in its metrics.
	WorkerID string

	// Store, when set, is the persistent result store behind -store-dir:
	// GET /v1/results is mounted over it and its counters are appended to
	// /metrics. Attaching the store to the evaluation pathway itself
	// (grid.SetRowStore) is the caller's job — the row store is
	// process-global while Servers are per-instance.
	Store resultstore.Store

	// Sweep, when set, runs every compiled /v1/sweep plan instead of this
	// server's own grid.Runner (cmd/sweepfront -serve plugs in its
	// *fabric.Fabric).
	Sweep SweepBackend
}

// SweepBackend runs a compiled /v1/sweep plan elsewhere.
type SweepBackend interface {
	// RunPlan streams the NDJSON rows of plan — compiled from spec, and
	// a row range of it for row_range requests — to w in plan order,
	// byte-identical to this server's own run; planRows is the full
	// plan's row count. It may flush w as rows become final. A failure
	// that is not a context error is reported in-band as fabric_failed.
	RunPlan(ctx context.Context, spec grid.Spec, plan *grid.Plan, planRows int, w io.Writer) error

	// MetricsSections are the backend's own top-level /metrics members.
	MetricsSections() []MetricsSection
}

// Server is the HTTP serving surface over one shared framework.
type Server struct {
	fw      *core.Framework
	cfg     Config
	sem     chan struct{}
	metrics *metrics
	handler http.Handler

	// deepestPState and peak are the environment facts request
	// validation needs: the deepest throttling P-state, and the peak
	// power that scales the named Table 3 configurations.
	deepestPState int
	peak          units.Watts
	runner        *grid.Runner

	// testHookEvalStarted, when set, runs after an evaluation slot is
	// acquired and before the evaluation itself — the seam the
	// saturation and deadline tests use to hold a request in flight.
	testHookEvalStarted func(ctx context.Context)
}

// New builds a Server over cfg.Framework.
func New(cfg Config) (*Server, error) {
	if cfg.Framework == nil {
		return nil, errors.New("httpapi: Config.Framework is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	s := &Server{
		fw:            cfg.Framework,
		cfg:           cfg,
		sem:           make(chan struct{}, cfg.MaxInflight),
		metrics:       newMetrics(),
		deepestPState: len(cfg.Framework.Env.Server.PStates) - 1,
		peak:          cfg.Framework.Env.PeakPower(),
		runner:        grid.NewRunner(cfg.Framework),
	}
	s.metrics.backend = cfg.Sweep

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.route("/v1/evaluate", s.handleEvaluate))
	mux.HandleFunc("POST /v1/size", s.route("/v1/size", s.handleSize))
	mux.HandleFunc("POST /v1/best", s.route("/v1/best", s.handleBest))
	mux.HandleFunc("POST /v1/sweep", s.route("/v1/sweep", s.handleSweep))
	mux.HandleFunc("GET /v1/techniques", s.route("/v1/techniques", s.handleTechniques))
	mux.HandleFunc("GET /v1/workloads", s.route("/v1/workloads", s.handleWorkloads))
	mux.HandleFunc("GET /healthz", s.route("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.route("/metrics", s.handleMetrics))
	if cfg.Store != nil {
		s.metrics.store = cfg.Store
		mux.HandleFunc("GET /v1/results", s.route("/v1/results", resultsHandler(cfg.Store)))
	}
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = mux
	return s, nil
}

// Handler returns the fully assembled HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// statusRecorder captures the status a handler wrote so the metrics
// middleware can count it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush passes a streaming handler's flush through to the connection, so
// a sweep reaches the client shard by shard.
func (r *statusRecorder) Flush() {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	http.NewResponseController(r.ResponseWriter).Flush()
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// route wraps a handler with the shared middleware: panic containment,
// body limiting, and per-route request/status/latency metrics.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				// The decoder and models are panic-free by contract (the
				// fuzz layer pins the decoder); this is the last-resort
				// fence so one bad request cannot take the daemon down.
				if rec.status == 0 {
					writeError(rec, &apiError{status: 500, code: "internal", message: "internal error"})
				}
			}
			s.metrics.observe(name, rec.status, time.Since(start).Nanoseconds())
		}()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(rec, r)
	}
}

// begin admits an evaluation: it takes a slot (or writes the 429 and
// reports false) and derives the evaluation context. end releases both.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, width int, timeout time.Duration) (ctx context.Context, end func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
	default:
		writeSaturated(w)
		return nil, nil, false
	}
	s.metrics.inflight.Add(1)
	ctx, cancel := s.evalContext(r, width, timeout)
	if s.testHookEvalStarted != nil {
		s.testHookEvalStarted(ctx)
	}
	return ctx, func() {
		cancel()
		s.metrics.inflight.Add(-1)
		<-s.sem
	}, true
}

// evalContext derives the request's evaluation context: the server
// deadline (tightened by a request timeout, never extended) plus the
// sweep width.
func (s *Server) evalContext(r *http.Request, width int, timeout time.Duration) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeout > 0 && timeout < d {
		d = timeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	if width <= 0 {
		width = s.cfg.Width
	}
	if width > 0 {
		ctx = sweep.WithWidth(ctx, width)
	}
	return ctx, cancel
}

// evalError maps an evaluation failure to a response: deadline expiry is
// 504, client disconnect is 499 (nginx's convention — the client is gone
// but the status still lands in metrics), typed input rejections are
// 400, anything else input-shaped from the scenario validator is 400
// with a distinct code.
func evalError(err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, code: "deadline_exceeded",
			message: "evaluation deadline expired; retry with a longer timeout or narrower request"}
	case errors.Is(err, context.Canceled):
		return &apiError{status: 499, code: "client_closed_request", message: "client closed request"}
	case errors.Is(err, core.ErrInvalidInput):
		var ie *core.InputError
		d := &apiError{status: http.StatusBadRequest, code: "invalid_input", message: err.Error()}
		if errors.As(err, &ie) {
			d.field = ie.Field
		}
		return d
	default:
		return &apiError{status: http.StatusBadRequest, code: "invalid_scenario", message: err.Error()}
	}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeEvaluateRequest(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	outage, timeout, err := parsePoint(req.Outage, req.Timeout, req.Width)
	if err != nil {
		writeError(w, err)
		return
	}
	wl, err := grid.ResolveWorkload(req.Workload)
	if err != nil {
		writeError(w, err)
		return
	}
	backup, err := grid.ResolveConfig(req.Config, s.peak)
	if err != nil {
		writeError(w, err)
		return
	}
	tech, err := grid.ResolveTechnique(req.Technique, s.deepestPState)
	if err != nil {
		writeError(w, err)
		return
	}

	ctx, end, ok := s.begin(w, r, req.Width, timeout)
	if !ok {
		return
	}
	defer end()

	res, err := s.fw.EvaluateCtx(ctx, backup, tech, wl, outage)
	if err != nil {
		writeError(w, evalError(err))
		return
	}
	writeJSON(w, http.StatusOK, EvaluateResponse{Result: grid.NewResultDTO(res)})
}

func (s *Server) handleSize(w http.ResponseWriter, r *http.Request) {
	var req SizeRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, err)
		return
	}
	outage, timeout, err := parsePoint(req.Outage, req.Timeout, req.Width)
	if err != nil {
		writeError(w, err)
		return
	}
	wl, err := grid.ResolveWorkload(req.Workload)
	if err != nil {
		writeError(w, err)
		return
	}
	tech, err := grid.ResolveTechnique(req.Technique, s.deepestPState)
	if err != nil {
		writeError(w, err)
		return
	}

	ctx, end, ok := s.begin(w, r, req.Width, timeout)
	if !ok {
		return
	}
	defer end()

	op, ok, err := s.fw.MinCostUPSCtx(ctx, tech, wl, outage)
	if err != nil {
		writeError(w, evalError(err))
		return
	}
	writeJSON(w, http.StatusOK, sizeResponse(op, ok))
}

func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	var req BestRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, err)
		return
	}
	outage, timeout, err := parsePoint(req.Outage, req.Timeout, req.Width)
	if err != nil {
		writeError(w, err)
		return
	}
	wl, err := grid.ResolveWorkload(req.Workload)
	if err != nil {
		writeError(w, err)
		return
	}
	backup, err := grid.ResolveConfig(req.Config, s.peak)
	if err != nil {
		writeError(w, err)
		return
	}

	ctx, end, ok := s.begin(w, r, req.Width, timeout)
	if !ok {
		return
	}
	defer end()

	res, tech, err := s.fw.BestForConfigCtx(ctx, backup, wl, outage)
	if err != nil {
		writeError(w, evalError(err))
		return
	}
	resp := BestResponse{Result: grid.NewResultDTO(res)}
	if tech != nil {
		resp.Technique = tech.Name()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTechniques(w http.ResponseWriter, _ *http.Request) {
	resp := TechniquesResponse{Families: core.Families()}
	for _, doc := range grid.TechniqueDocs() {
		resp.Techniques = append(resp.Techniques, TechniqueInfo{
			Name:   doc.Name,
			Params: doc.Params,
			Doc:    doc.Doc,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	var resp WorkloadsResponse
	for _, wl := range workload.All() {
		resp.Workloads = append(resp.Workloads, WorkloadInfo{
			Name:             wl.Name,
			PerfMetric:       wl.PerfMetric,
			FootprintGiB:     wl.Memory.Footprint.GiB(),
			Utilization:      wl.Utilization,
			CPUBoundFraction: wl.CPUBoundFraction,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.metrics.writeTo(w)
}
