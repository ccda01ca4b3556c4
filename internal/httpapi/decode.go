package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"backuppower/internal/grid"
	"backuppower/internal/units"
)

// apiError is a request rejection on its way to becoming a typed 4xx
// body. status is the HTTP status to respond with.
type apiError struct {
	status  int
	code    string
	field   string
	message string
}

func (e *apiError) Error() string {
	if e.field != "" {
		return fmt.Sprintf("%s: %s: %s", e.code, e.field, e.message)
	}
	return fmt.Sprintf("%s: %s", e.code, e.message)
}

func badRequest(code, field, format string, args ...any) *apiError {
	return &apiError{status: 400, code: code, field: field, message: fmt.Sprintf(format, args...)}
}

// decodeStrict decodes one JSON document into v, rejecting unknown
// fields, malformed JSON, and trailing garbage. It never panics on any
// input (FuzzDecodeEvaluateRequest pins this).
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid_json", "", "%s", decodeErrMessage(err))
	}
	// A second token means trailing data after the document.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return badRequest("invalid_json", "", "trailing data after JSON body")
	}
	return nil
}

// decodeErrMessage strips the "json: " prefix noise while keeping the
// decoder's useful position/field detail.
func decodeErrMessage(err error) string {
	return strings.TrimPrefix(err.Error(), "json: ")
}

// DecodeEvaluateRequest strictly decodes an EvaluateRequest body. It is
// exported (within the package's internal tree) so the fuzz target can
// drive the exact decoder the handler uses.
func DecodeEvaluateRequest(r io.Reader) (EvaluateRequest, error) {
	var req EvaluateRequest
	if err := decodeStrict(r, &req); err != nil {
		return EvaluateRequest{}, err
	}
	return req, nil
}

// parsePoint validates the fields every point route shares: the outage
// (parseable, positive, inside the framework's accepted band), the
// optional timeout and the optional width, in that order.
func parsePoint(outage, timeout string, width int) (time.Duration, time.Duration, error) {
	d, err := grid.ParseOutage(outage)
	if err != nil {
		return 0, 0, err
	}
	t, err := parseTimeout(timeout)
	if err == nil {
		err = parseWidth(width)
	}
	return d, t, err
}

// parseTimeout validates the optional per-request timeout override.
func parseTimeout(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := units.ParseDuration(s)
	if err != nil {
		return 0, badRequest("invalid_duration", "timeout", "%v", err)
	}
	if d <= 0 {
		return 0, badRequest("out_of_range", "timeout", "timeout %v must be positive", d)
	}
	return d, nil
}

// parseWidth validates the optional sweep-width override.
func parseWidth(w int) error {
	if w < 0 || w > 1024 {
		return badRequest("out_of_range", "width", "width %d out of [0, 1024]", w)
	}
	return nil
}
