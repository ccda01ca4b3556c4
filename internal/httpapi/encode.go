package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"

	"backuppower/internal/grid"
)

// writeJSON encodes v as the response body. Encoding our own DTO structs
// cannot fail; field order is the struct order, so identical results
// always produce identical bytes (the determinism and golden tests rely
// on this).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError renders any rejection as the typed error body. A grid
// resolver's *grid.FieldError is a 400 with its code and field — the
// resolvers live in internal/grid, so the HTTP surface, the sweep
// subsystem and cmd/gridrun share one set of codes and rules. Any other
// error that is not an *apiError (never expected from our own paths)
// becomes an opaque 500 rather than leaking internals.
func writeError(w http.ResponseWriter, err error) {
	var ae *apiError
	var fe *grid.FieldError
	switch {
	case errors.As(err, &ae):
	case errors.As(err, &fe):
		ae = badRequest(fe.Code, fe.Field, "%s", fe.Message)
	default:
		ae = &apiError{status: http.StatusInternalServerError, code: "internal", message: "internal error"}
	}
	writeJSON(w, ae.status, ErrorBody{Error: ErrorDetail{
		Code:    ae.code,
		Field:   ae.field,
		Message: ae.message,
	}})
}

// writeNDJSONLine encodes one value as a single NDJSON line of a
// streaming response (json.Encoder appends the newline).
func writeNDJSONLine(w http.ResponseWriter, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// writeSaturated is the 429 path: every in-flight evaluation slot is
// taken. Retry-After is a hint; evaluations are fast, so one second is
// generous.
func writeSaturated(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, &apiError{status: http.StatusTooManyRequests, code: "saturated",
		message: "all evaluation slots are in flight; retry shortly"})
}
