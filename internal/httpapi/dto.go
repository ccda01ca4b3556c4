package httpapi

import (
	"backuppower/internal/core"
	"backuppower/internal/grid"
)

// The wire types. Requests carry quantities as human strings ("120kW",
// "30m") parsed through internal/units; responses render durations in
// Go's canonical duration syntax and powers/energies as plain numbers
// with the unit in the field name, so every field is self-describing and
// the encoding is deterministic (the golden tests pin it byte-for-byte).

// ConfigDTO and TechniqueDTO are the shared axis-element types from
// internal/grid — the single place their JSON shapes and validation rules
// live. The aliases keep this package's wire surface self-contained.
type (
	ConfigDTO    = grid.ConfigDTO
	TechniqueDTO = grid.TechniqueDTO
)

// EvaluateRequest is the body of POST /v1/evaluate: one scenario point.
type EvaluateRequest struct {
	Config    ConfigDTO    `json:"config"`
	Technique TechniqueDTO `json:"technique"`
	Workload  string       `json:"workload"`
	Outage    string       `json:"outage"`
	// Width overrides the sweep worker-pool width for this request
	// (0 = server default). Results are identical at any width.
	Width int `json:"width,omitempty"`
	// Timeout tightens the per-request deadline below the server's
	// -timeout; it can never extend it.
	Timeout string `json:"timeout,omitempty"`
}

// SizeRequest is the body of POST /v1/size: find the cheapest UPS-only
// backup under which the technique survives the outage.
type SizeRequest struct {
	Technique TechniqueDTO `json:"technique"`
	Workload  string       `json:"workload"`
	Outage    string       `json:"outage"`
	Width     int          `json:"width,omitempty"`
	Timeout   string       `json:"timeout,omitempty"`
}

// BestRequest is the body of POST /v1/best: race all techniques behind a
// fixed configuration and return the winner (the Figure 5 selection).
type BestRequest struct {
	Config   ConfigDTO `json:"config"`
	Workload string    `json:"workload"`
	Outage   string    `json:"outage"`
	Width    int       `json:"width,omitempty"`
	Timeout  string    `json:"timeout,omitempty"`
}

// ResultDTO and BackupDTO are likewise shared with internal/grid, which
// streams the same shapes as NDJSON sweep rows.
type (
	ResultDTO = grid.ResultDTO
	BackupDTO = grid.BackupDTO
)

// EvaluateResponse is the body of a successful POST /v1/evaluate.
type EvaluateResponse struct {
	Result ResultDTO `json:"result"`
}

// SizeResponse is the body of a successful POST /v1/size. Feasible false
// means no UPS-only configuration lets the technique survive the outage
// (still a 200 — infeasibility is an answer, not an error).
type SizeResponse struct {
	Feasible  bool       `json:"feasible"`
	Technique string     `json:"technique,omitempty"`
	Backup    *BackupDTO `json:"backup,omitempty"`
	NormCost  float64    `json:"norm_cost,omitempty"`
	Result    *ResultDTO `json:"result,omitempty"`
}

func sizeResponse(op core.OperatingPoint, ok bool) SizeResponse {
	if !ok {
		return SizeResponse{}
	}
	b := grid.NewBackupDTO(op.Backup)
	r := grid.NewResultDTO(op.Result)
	return SizeResponse{
		Feasible:  true,
		Technique: op.Technique,
		Backup:    &b,
		NormCost:  op.NormCost,
		Result:    &r,
	}
}

// BestResponse is the body of a successful POST /v1/best.
type BestResponse struct {
	Technique string    `json:"technique"`
	Result    ResultDTO `json:"result"`
}

// TechniqueInfo is one entry of GET /v1/techniques.
type TechniqueInfo struct {
	Name   string   `json:"name"`
	Params []string `json:"params,omitempty"`
	Doc    string   `json:"doc"`
}

// TechniquesResponse is the body of GET /v1/techniques.
type TechniquesResponse struct {
	Techniques []TechniqueInfo `json:"techniques"`
	// Families are the Figure 6-9 family names the sizing sweeps group by.
	Families []string `json:"families"`
}

// WorkloadInfo is one entry of GET /v1/workloads.
type WorkloadInfo struct {
	Name             string  `json:"name"`
	PerfMetric       string  `json:"perf_metric"`
	FootprintGiB     float64 `json:"footprint_gib"`
	Utilization      float64 `json:"utilization"`
	CPUBoundFraction float64 `json:"cpu_bound_fraction"`
}

// WorkloadsResponse is the body of GET /v1/workloads.
type WorkloadsResponse struct {
	Workloads []WorkloadInfo `json:"workloads"`
}

// ErrorBody is the JSON shape of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names what went wrong. Code is a stable machine-readable
// string; Field (when set) is the request field that was rejected.
type ErrorDetail struct {
	Code    string `json:"code"`
	Field   string `json:"field,omitempty"`
	Message string `json:"message"`
}
