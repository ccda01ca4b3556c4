package httpapi

import (
	"io"
	"net/http"
	"strconv"

	"backuppower/internal/grid"
)

// SweepRequest is the body of POST /v1/sweep: a declarative grid spec
// plus the familiar per-request execution knobs. The response streams
// one NDJSON row per surviving grid point, in plan order, flushed shard
// by shard; the bytes are identical at any width and any shard size.
type SweepRequest struct {
	Spec grid.Spec `json:"spec"`
	// Width overrides the sweep worker-pool width for this request
	// (0 = server default). Results are identical at any width.
	Width int `json:"width,omitempty"`
	// Timeout tightens the per-request deadline below the server's
	// -timeout; it can never extend it.
	Timeout string `json:"timeout,omitempty"`
	// ShardSize batches row emission (0 = server default); it never
	// changes row values or order.
	ShardSize int `json:"shard_size,omitempty"`
	// RowRange restricts execution to the half-open [start, end) span of
	// the compiled plan's rows — the shard-execution form the sweep
	// fabric (cmd/sweepfront) uses to fan one plan out across a worker
	// pool, and its resume token after a mid-shard worker failure. Rows
	// keep the indices the full plan gave them, so the coordinator can
	// validate stream contiguity and merge shards byte-identically to a
	// single-node run. Absent means the whole plan.
	RowRange *grid.RowRange `json:"row_range,omitempty"`
}

// DecodeSweepRequest strictly decodes a SweepRequest body. Exported so
// the fuzz target drives the exact decoder the handler uses.
func DecodeSweepRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		return SweepRequest{}, err
	}
	return req, nil
}

// parseShardSize validates the optional emission batch size.
func parseShardSize(n int) error {
	if n < 0 || n > 1<<20 {
		return badRequest("out_of_range", "shard_size", "shard_size %d out of [0, %d]", n, 1<<20)
	}
	return nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSweepRequest(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	timeout, err := parseTimeout(req.Timeout)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := parseWidth(req.Width); err != nil {
		writeError(w, err)
		return
	}
	if err := parseShardSize(req.ShardSize); err != nil {
		writeError(w, err)
		return
	}
	opt := grid.CompileOptions{
		DefaultServers: s.fw.Env.Servers,
		MaxRows:        s.cfg.MaxSweepRows,
	}
	// A row range (a fabric shard) materializes only its own rows; the
	// plan's validation, bound and filter still cover the whole spec.
	var plan *grid.Plan
	var planRows int
	if req.RowRange != nil {
		plan, planRows, err = grid.CompileRange(req.Spec, opt, *req.RowRange)
	} else if plan, err = grid.Compile(req.Spec, opt); err == nil {
		planRows = len(plan.Points)
	}
	if err != nil {
		writeError(w, err)
		return
	}

	ctx, end, ok := s.begin(w, r, req.Width, timeout)
	if !ok {
		return
	}
	defer end()

	// From here on the response streams: the status line and header go
	// out before the first shard, so a mid-stream failure can only be
	// reported in-band — as a final NDJSON error line (shape ErrorBody,
	// distinguishable from rows by its "error" object).
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Identity and extent headers for the fabric coordinator: which
	// worker answered, how many rows this response will stream, and how
	// many rows the full plan has (so a sharded caller can sanity-check
	// that every worker compiled the same plan).
	if s.cfg.WorkerID != "" {
		w.Header().Set("X-Backupd-Worker", s.cfg.WorkerID)
	}
	w.Header().Set("X-Sweep-Rows", strconv.Itoa(len(plan.Points)))
	w.Header().Set("X-Sweep-Plan-Rows", strconv.Itoa(planRows))
	w.WriteHeader(http.StatusOK)

	var runErr error
	if s.cfg.Sweep != nil {
		runErr = s.cfg.Sweep.RunPlan(ctx, req.Spec, plan, planRows, w)
	} else {
		runErr = s.runner.RunStream(ctx, plan, grid.RunOptions{
			ShardSize: req.ShardSize,
			Progress: func(grid.Progress) {
				// Fires as each shard completes, before its rows are
				// written: push the previous shard's buffered rows to the
				// client so a long grid streams instead of arriving all at
				// once.
				if flusher != nil {
					flusher.Flush()
				}
			},
		}, func(row grid.RowResult) error {
			return writeNDJSONLine(w, grid.NewRowDTO(plan.Op, row))
		})
	}
	if runErr != nil {
		ae := evalError(runErr)
		if s.cfg.Sweep != nil && ae.code == "invalid_scenario" {
			// Not a context error: the backend's own failure (a shard
			// that exhausted its retries and hedges, a worker rejecting
			// its range). The plan compiled here, so it is no input
			// fault.
			ae.code = "fabric_failed"
		}
		writeNDJSONLine(w, ErrorBody{Error: ErrorDetail{
			Code:    ae.code,
			Field:   ae.field,
			Message: ae.message,
		}})
	}
	if flusher != nil {
		flusher.Flush()
	}
}
