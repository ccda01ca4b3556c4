package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"backuppower/internal/grid"
	"backuppower/internal/resultstore"
)

// ResultsDefaultLimit caps how many rows one GET /v1/results response
// returns when the request does not say otherwise. The canonical row
// order makes the truncation deterministic; tighter reads pass ?limit=.
const ResultsDefaultLimit = 10000

// GroupsResponse is the body of a group-by results query.
type GroupsResponse struct {
	Groups []resultstore.Group `json:"groups"`
}

// resultsHandler serves GET /v1/results?query=... over a persistent row
// store: the stored sweep rows are filtered and aggregated by the
// resultstore query language and streamed back as the same NDJSON row
// encoding /v1/sweep produces (Index 0 — stored rows are plan-
// independent), or as a single JSON document for group-by queries.
func resultsHandler(store resultstore.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		plan, err := resultstore.ParseQuery(q.Get("query"))
		if err != nil {
			var fe *resultstore.FieldError
			if errors.As(err, &fe) {
				writeError(w, &apiError{status: http.StatusBadRequest,
					code: fe.Code, field: fe.Field, message: fe.Message})
			} else {
				writeError(w, &apiError{status: http.StatusBadRequest,
					code: "bad_query", message: err.Error()})
			}
			return
		}
		limit := ResultsDefaultLimit
		if raw := q.Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n <= 0 {
				writeError(w, &apiError{status: http.StatusBadRequest,
					code: "bad_value", field: "limit", message: "limit must be a positive integer"})
				return
			}
			limit = n
		}

		// Point rows ('R') and process rows ('P') are both servable; the
		// query language's canonical sort interleaves them
		// deterministically whatever the scan order.
		var rows []resultstore.StoredRow
		for _, ns := range []byte{resultstore.NSRow, resultstore.NSProcessRow} {
			scanErr := store.Scan(ns, func(_ resultstore.Key, payload []byte) error {
				sr, err := resultstore.DecodeRow(payload)
				if err != nil {
					// An undecodable payload (foreign schema version) is not
					// servable; it degrades to absent, exactly as on the write
					// path.
					return nil
				}
				rows = append(rows, sr)
				return nil
			})
			if scanErr != nil {
				writeError(w, &apiError{status: http.StatusInternalServerError,
					code: "store_scan", message: "result store scan failed"})
				return
			}
		}

		out := plan.Execute(rows)
		if plan.Grouped() {
			if out.Groups == nil {
				out.Groups = []resultstore.Group{}
			}
			writeJSON(w, http.StatusOK, GroupsResponse{Groups: out.Groups})
			return
		}
		if len(out.Rows) > limit {
			out.Rows = out.Rows[:limit]
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		for i := range out.Rows {
			if err := enc.Encode(grid.DTOFromStored(&out.Rows[i])); err != nil {
				return
			}
		}
	}
}
