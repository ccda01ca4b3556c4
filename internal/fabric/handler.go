package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
)

// maxBodyBytes caps a POST /v1/sweep body on the coordinator, matching
// backupd's default request body limit.
const maxBodyBytes = 1 << 20

// Handler returns the coordinator's serving surface: POST /v1/sweep
// decodes the same body backupd takes (spec plus optional timeout) and
// streams the merged NDJSON back, GET /metrics serves the metrics
// document, and GET /healthz answers liveness probes. cmd/sweepfront
// -serve mounts exactly this handler, and in-process consumers (tests,
// cmd/vulture's multi-worker loopback target) serve it on a local
// listener to exercise the fabric through real HTTP.
//
// Runs are independent and safe to serve concurrently. A failure after
// the stream has started is reported in-band as a final NDJSON error
// line, the same contract as backupd's /v1/sweep.
func (f *Fabric) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Spec    grid.Spec `json:"spec"`
			Timeout string    `json:"timeout,omitempty"`
		}
		// The same body discipline as backupd: at most maxBodyBytes, one
		// JSON document, no unknown fields and nothing after it.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		if err == nil {
			if _, tail := dec.Token(); !errors.Is(tail, io.EOF) {
				err = errors.New("trailing data after JSON body")
			}
		}
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":{"code":"invalid_json","message":%q}}`, err.Error()), http.StatusBadRequest)
			return
		}
		ctx := r.Context()
		if req.Timeout != "" {
			d, err := time.ParseDuration(req.Timeout)
			if err != nil || d <= 0 {
				http.Error(w, `{"error":{"code":"invalid_duration","field":"timeout"}}`, http.StatusBadRequest)
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		flusher, _ := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if err := f.Run(ctx, req.Spec, w); err != nil {
			json.NewEncoder(w).Encode(map[string]any{
				"error": map[string]string{"code": "fabric_failed", "message": err.Error()},
			})
		}
		if flusher != nil {
			flusher.Flush()
		}
	})
	mux.Handle("GET /metrics", f.Metrics())
	if f.opt.Store != nil {
		// The coordinator serves reads over its own store through the
		// exact handler backupd mounts, so the two surfaces return the
		// same bytes for the same stored rows.
		mux.Handle("GET /v1/results", httpapi.NewResultsHandler(f.opt.Store))
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}` + "\n"))
	})
	return mux
}
