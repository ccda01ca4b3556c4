package grid

import (
	"backuppower/internal/cluster"
	"backuppower/internal/cost"
)

// ResultDTO mirrors cluster.Result without the trace pointers. It is the
// shared response shape: POST /v1/evaluate embeds one, /v1/sweep and
// cmd/gridrun stream one per row. Durations render in Go's canonical
// syntax; powers/energies are plain numbers with the unit in the field
// name, so the encoding is deterministic (golden tests pin it).
type ResultDTO struct {
	Technique       string  `json:"technique"`
	Config          string  `json:"config"`
	Workload        string  `json:"workload"`
	Outage          string  `json:"outage"`
	Survived        bool    `json:"survived"`
	CrashedAt       string  `json:"crashed_at,omitempty"`
	Perf            float64 `json:"perf"`
	Downtime        string  `json:"downtime"`
	DowntimeMin     string  `json:"downtime_min"`
	DowntimeMax     string  `json:"downtime_max"`
	PeakUPSDrawW    float64 `json:"peak_ups_draw_w"`
	PeakBackupDrawW float64 `json:"peak_backup_draw_w"`
	UPSEnergyWh     float64 `json:"ups_energy_wh"`
	UPSRemaining    float64 `json:"ups_remaining"`
	NormCost        float64 `json:"norm_cost"`
}

// NewResultDTO converts a simulation result to its wire shape.
func NewResultDTO(r cluster.Result) ResultDTO {
	d := ResultDTO{
		Technique:       r.Technique,
		Config:          r.Config,
		Workload:        r.Workload,
		Outage:          r.Outage.String(),
		Survived:        r.Survived,
		Perf:            r.Perf,
		Downtime:        r.Downtime.String(),
		DowntimeMin:     r.DowntimeMin.String(),
		DowntimeMax:     r.DowntimeMax.String(),
		PeakUPSDrawW:    float64(r.PeakUPSDraw),
		PeakBackupDrawW: float64(r.PeakBackupDraw),
		UPSEnergyWh:     float64(r.UPSEnergy),
		UPSRemaining:    r.UPSRemaining,
		NormCost:        r.Cost,
	}
	if !r.Survived {
		d.CrashedAt = r.CrashedAt.String()
	}
	return d
}

// BackupDTO describes a concrete backup configuration in a response.
type BackupDTO struct {
	Name              string  `json:"name"`
	DGPowerW          float64 `json:"dg_power_w"`
	UPSPowerW         float64 `json:"ups_power_w"`
	UPSRuntime        string  `json:"ups_runtime"`
	AnnualCostDollars float64 `json:"annual_cost_dollars_per_year"`
}

// NewBackupDTO converts a backup configuration to its wire shape.
func NewBackupDTO(b cost.Backup) BackupDTO {
	return BackupDTO{
		Name:              b.Name,
		DGPowerW:          float64(b.DG.PowerCapacity),
		UPSPowerW:         float64(b.UPS.PowerCapacity),
		UPSRuntime:        b.UPS.Runtime.String(),
		AnnualCostDollars: float64(b.AnnualCost()),
	}
}

// RowDTO is one NDJSON line of a streamed sweep: the row's coordinates
// followed by its op-specific payload. Exactly one of the payload groups
// is populated — evaluate fills result; size fills feasible (plus
// backup/norm_cost/result when feasible); best fills best and result.
// A row-level evaluation failure fills error instead.
type RowDTO struct {
	Index     int    `json:"index"`
	Op        string `json:"op"`
	Servers   int    `json:"servers"`
	Workload  string `json:"workload"`
	Config    string `json:"config,omitempty"`
	Family    string `json:"family,omitempty"`
	Technique string `json:"technique,omitempty"`

	// Outage is the point-outage coordinate; process rows omit it and
	// carry their resolved process spec in Process instead.
	Outage  string      `json:"outage,omitempty"`
	Process *ProcessDTO `json:"process,omitempty"`

	Feasible      *bool             `json:"feasible,omitempty"`
	NormCost      float64           `json:"norm_cost,omitempty"`
	Backup        *BackupDTO        `json:"backup,omitempty"`
	Best          string            `json:"best,omitempty"`
	Result        *ResultDTO        `json:"result,omitempty"`
	ProcessResult *ProcessResultDTO `json:"process_result,omitempty"`
	Error         string            `json:"error,omitempty"`
}

// NewRowDTO converts one runner row to its wire shape.
func NewRowDTO(op string, row RowResult) RowDTO {
	p := row.Point
	d := RowDTO{
		Index:    p.Index,
		Op:       op,
		Servers:  p.Servers,
		Workload: p.Workload.Name,
		Family:   p.Family,
	}
	if p.Process != nil {
		pd := ProcessDTOFromProcess(p.Process)
		d.Process = &pd
	} else {
		d.Outage = p.Outage.String()
	}
	if p.HasConfig {
		d.Config = p.Config.Name
	}
	if p.Technique != nil {
		d.Technique = p.Technique.Name()
	}
	if row.Err != nil {
		d.Error = row.Err.Error()
		return d
	}
	switch op {
	case OpSize:
		feasible := row.Feasible
		d.Feasible = &feasible
		if feasible {
			d.Technique = row.Sizing.Technique
			d.NormCost = row.Sizing.NormCost
			b := NewBackupDTO(row.Sizing.Backup)
			d.Backup = &b
			r := NewResultDTO(row.Sizing.Result)
			d.Result = &r
		}
	case OpBest:
		d.Best = row.Best
		r := NewResultDTO(row.Result)
		d.Result = &r
	default: // OpEvaluate
		if row.Process != nil {
			r := NewProcessResultDTO(*row.Process)
			d.ProcessResult = &r
		} else {
			r := NewResultDTO(row.Result)
			d.Result = &r
		}
	}
	return d
}
