package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"backuppower/internal/battery"
	"backuppower/internal/cluster"
	"backuppower/internal/cost"
	"backuppower/internal/genset"
	"backuppower/internal/units"
	"backuppower/internal/ups"
)

// rowSchemaV is the StoredRow payload layout version, the payload's
// leading byte. DecodeRow rejects anything else, so a layout change
// degrades old rows to cache misses (graceful recompute) instead of
// misreads. Version 1 was a JSON object, whose first byte is '{'.
const rowSchemaV = 2

// StoredRow is the persistent form of one grid sweep row: the row's
// coordinates (everything but the plan-local index, which is re-stamped
// at emission — the same point in two different grids shares one stored
// row) plus the op-specific payload, carried as full model structs so
// the wire DTO can be reconstructed byte-identically, including derived
// fields like the backup's annual cost. The JSON tags name the retired
// version-1 payload's keys.
type StoredRow struct {
	V         int             `json:"v"`
	Op        string          `json:"op"`
	Servers   int             `json:"servers"`
	Workload  string          `json:"workload"`
	Config    string          `json:"config,omitempty"`
	HasConfig bool            `json:"has_config,omitempty"`
	Family    string          `json:"family,omitempty"`
	Technique string          `json:"technique,omitempty"`
	Best      string          `json:"best,omitempty"`
	OutageNS  int64           `json:"outage_ns"`
	Feasible  bool            `json:"feasible,omitempty"`
	Result    *cluster.Result `json:"result,omitempty"`
	Sizing    *StoredSizing   `json:"sizing,omitempty"`

	// Process is a stochastic-process row's payload (NSProcessRow keys):
	// the resolved process spec plus the process-level fold. OutageNS is
	// zero for process rows; the spec fields below are the coordinate.
	Process *StoredProcess `json:"process,omitempty"`
}

// StoredProcess is a process row's payload: the outage.Process spec that
// was evaluated (for coordinate cross-checks) and core.ProcessResult's
// content, without importing either package (the store sits below both).
// Durations are nanosecond integers.
type StoredProcess struct {
	Seed           int64   `json:"seed"`
	Draws          int     `json:"draws"`
	ArrivalKind    string  `json:"arrival_kind"`
	ArrivalMeanNS  int64   `json:"arrival_mean_ns,omitempty"`
	ArrivalShape   float64 `json:"arrival_shape,omitempty"`
	DurationKind   string  `json:"duration_kind"`
	DurationMeanNS int64   `json:"duration_mean_ns,omitempty"`
	DurationShape  float64 `json:"duration_shape,omitempty"`
	Correlation    float64 `json:"correlation,omitempty"`

	Events             int     `json:"events"`
	Availability       float64 `json:"availability"`
	ExpectedDowntimeNS int64   `json:"expected_downtime_ns"`
	DowntimeP50NS      int64   `json:"downtime_p50_ns"`
	DowntimeP95NS      int64   `json:"downtime_p95_ns"`
	DowntimeP99NS      int64   `json:"downtime_p99_ns"`
	DowntimeMaxNS      int64   `json:"downtime_max_ns"`
	SurvivalRate       float64 `json:"survival_rate"`
	Perf               float64 `json:"perf"`
	EnergyShortfallWh  float64 `json:"energy_shortfall_wh"`
	NormCost           float64 `json:"norm_cost"`
}

// StoredSizing is a size row's payload: core.OperatingPoint's content
// without importing core (which imports nothing from here — the store
// sits below the framework).
type StoredSizing struct {
	Technique string         `json:"technique"`
	Backup    cost.Backup    `json:"backup"`
	Result    cluster.Result `json:"result"`
	NormCost  float64        `json:"norm_cost"`
}

// The version-2 payload is one fixed field order, no field names:
//
//	version byte (2)
//	op, workload, config, family, technique, best  strings
//	servers                                       varint
//	outage                                        int64
//	flags byte: hasConfig, feasible, result, sizing, process
//	[result]   cluster.Result                     if the result flag
//	[sizing]   technique string, cost.Backup, cluster.Result, norm cost
//	[process]  StoredProcess, in declaration order
//
// A string is a uvarint byte length and the bytes; an int is a zigzag
// varint; a float is its math.Float64bits as 8 little-endian bytes; a
// duration or int64 is 8 little-endian bytes; a bool is one byte, 0 or 1.
// Nested structs are their fields in declaration order. The encoding is
// canonical: DecodeRow rejects non-minimal varints, bool bytes other
// than 0 and 1, unknown flag bits, non-finite floats and trailing bytes,
// so every payload it accepts re-encodes to the same bytes.
// TestRowLayoutFieldsPinned fails when any struct above gains or loses
// a field; extend both codec halves and bump rowSchemaV together.
const (
	flagHasConfig byte = 1 << iota
	flagFeasible
	flagResult
	flagSizing
	flagProcess
	flagsKnown = flagHasConfig | flagFeasible | flagResult | flagSizing | flagProcess
)

// errNonFinite refuses a float the payload would round-trip but the
// sweep encoders never emit; the row is simply recomputed.
var errNonFinite = errors.New("resultstore: non-finite float in row")

// EncodeRow serializes a row payload (stamping the layout version). An
// error (a non-finite float, a result carrying traces) means the row is
// simply not stored.
func EncodeRow(r StoredRow) ([]byte, error) {
	traced := func(res *cluster.Result) bool { return res.PerfTrace != nil || res.PowerTrace != nil }
	if (r.Result != nil && traced(r.Result)) || (r.Sizing != nil && traced(&r.Sizing.Result)) {
		return nil, fmt.Errorf("resultstore: refusing to store a traced result")
	}
	w := rowWriter{b: make([]byte, 0, 320)}
	w.b = append(w.b, rowSchemaV)
	w.str(r.Op)
	w.str(r.Workload)
	w.str(r.Config)
	w.str(r.Family)
	w.str(r.Technique)
	w.str(r.Best)
	w.varint(r.Servers)
	w.i64(r.OutageNS)
	var flags byte
	if r.HasConfig {
		flags |= flagHasConfig
	}
	if r.Feasible {
		flags |= flagFeasible
	}
	if r.Result != nil {
		flags |= flagResult
	}
	if r.Sizing != nil {
		flags |= flagSizing
	}
	if r.Process != nil {
		flags |= flagProcess
	}
	w.b = append(w.b, flags)
	if r.Result != nil {
		w.result(r.Result)
	}
	if s := r.Sizing; s != nil {
		w.str(s.Technique)
		w.backup(&s.Backup)
		w.result(&s.Result)
		w.f64(s.NormCost)
	}
	if p := r.Process; p != nil {
		w.process(p)
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// DecodeRow parses a row payload. Any other layout version — including a
// version-1 JSON payload — and any truncated, trailing or malformed byte
// is an error, never a panic; every length is checked against the bytes
// left before anything is allocated for it.
func DecodeRow(payload []byte) (StoredRow, error) {
	if len(payload) == 0 {
		return StoredRow{}, errors.New("resultstore: empty row payload")
	}
	if payload[0] != rowSchemaV {
		return StoredRow{}, fmt.Errorf("resultstore: row layout byte %#x (want %d)", payload[0], rowSchemaV)
	}
	rd := rowReader{b: payload[1:]}
	r := StoredRow{V: rowSchemaV}
	r.Op = rd.str()
	r.Workload = rd.str()
	r.Config = rd.str()
	r.Family = rd.str()
	r.Technique = rd.str()
	r.Best = rd.str()
	r.Servers = rd.varint()
	r.OutageNS = rd.i64()
	flags := rd.u8()
	if rd.err == nil && flags&^flagsKnown != 0 {
		rd.fail("unknown row flags")
	}
	r.HasConfig = flags&flagHasConfig != 0
	r.Feasible = flags&flagFeasible != 0
	if flags&flagResult != 0 && rd.err == nil {
		r.Result = new(cluster.Result)
		rd.result(r.Result)
	}
	if flags&flagSizing != 0 && rd.err == nil {
		s := new(StoredSizing)
		s.Technique = rd.str()
		rd.backup(&s.Backup)
		rd.result(&s.Result)
		s.NormCost = rd.f64()
		r.Sizing = s
	}
	if flags&flagProcess != 0 && rd.err == nil {
		r.Process = new(StoredProcess)
		rd.process(r.Process)
	}
	if rd.err == nil && len(rd.b) != 0 {
		rd.fail("trailing bytes")
	}
	if rd.err != nil {
		return StoredRow{}, rd.err
	}
	return r, nil
}

// rowWriter appends the version-2 layout; err records the first
// non-finite float.
type rowWriter struct {
	b   []byte
	err error
}

func (w *rowWriter) str(s string) {
	w.b = binary.AppendUvarint(w.b, uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *rowWriter) varint(v int) { w.b = binary.AppendVarint(w.b, int64(v)) }

func (w *rowWriter) i64(v int64) { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }

func (w *rowWriter) dur(d time.Duration) { w.i64(int64(d)) }

func (w *rowWriter) f64(v float64) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && w.err == nil {
		w.err = errNonFinite
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *rowWriter) flag(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *rowWriter) result(r *cluster.Result) {
	w.str(r.Technique)
	w.str(r.Config)
	w.str(r.Workload)
	w.dur(r.Outage)
	w.flag(r.Survived)
	w.dur(r.CrashedAt)
	w.f64(r.Perf)
	w.dur(r.Downtime)
	w.dur(r.DowntimeMin)
	w.dur(r.DowntimeMax)
	w.f64(float64(r.PeakUPSDraw))
	w.f64(float64(r.PeakBackupDraw))
	w.f64(float64(r.UPSEnergy))
	w.f64(r.UPSRemaining)
	w.f64(r.Cost)
}

func (w *rowWriter) backup(b *cost.Backup) {
	w.str(b.Name)
	dg := &b.DG
	w.f64(float64(dg.PowerCapacity))
	w.dur(dg.StartupDelay)
	w.varint(dg.TransferSteps)
	w.dur(dg.TransferStepDelay)
	w.dur(dg.FuelRuntime)
	w.f64(dg.CostPerKWYear)
	u := &b.UPS
	w.f64(float64(u.PowerCapacity))
	w.dur(u.Runtime)
	w.str(u.Tech.Name)
	w.f64(u.Tech.PeukertExponent)
	w.dur(u.Tech.FreeRunTime)
	w.f64(u.Tech.PowerCostPerKWYear)
	w.f64(u.Tech.EnergyCostPerKWhYear)
	w.f64(u.Tech.MinLoadFraction)
	w.dur(u.SwitchoverDelay)
	w.dur(u.RideThrough)
	w.varint(int(u.Placement))
}

func (w *rowWriter) process(p *StoredProcess) {
	w.i64(p.Seed)
	w.varint(p.Draws)
	w.str(p.ArrivalKind)
	w.i64(p.ArrivalMeanNS)
	w.f64(p.ArrivalShape)
	w.str(p.DurationKind)
	w.i64(p.DurationMeanNS)
	w.f64(p.DurationShape)
	w.f64(p.Correlation)
	w.varint(p.Events)
	w.f64(p.Availability)
	w.i64(p.ExpectedDowntimeNS)
	w.i64(p.DowntimeP50NS)
	w.i64(p.DowntimeP95NS)
	w.i64(p.DowntimeP99NS)
	w.i64(p.DowntimeMaxNS)
	w.f64(p.SurvivalRate)
	w.f64(p.Perf)
	w.f64(p.EnergyShortfallWh)
	w.f64(p.NormCost)
}

// rowReader consumes the version-2 layout. The first malformation sets
// err; every later read returns a zero value without touching b, so the
// decoder reads straight through and checks err once per section.
type rowReader struct {
	b   []byte
	err error
}

func (rd *rowReader) fail(what string) {
	if rd.err == nil {
		rd.err = fmt.Errorf("resultstore: malformed row: %s", what)
	}
	rd.b = nil
}

func (rd *rowReader) u8() byte {
	if len(rd.b) < 1 {
		rd.fail("truncated")
		return 0
	}
	v := rd.b[0]
	rd.b = rd.b[1:]
	return v
}

func (rd *rowReader) str() string {
	n, k := binary.Uvarint(rd.b)
	if k <= 0 || (k > 1 && rd.b[k-1] == 0) {
		rd.fail("bad string length")
		return ""
	}
	if n > uint64(len(rd.b)-k) {
		rd.fail("string overruns payload")
		return ""
	}
	s := string(rd.b[k : k+int(n)])
	rd.b = rd.b[k+int(n):]
	return s
}

func (rd *rowReader) varint() int {
	v, k := binary.Varint(rd.b)
	if k <= 0 || (k > 1 && rd.b[k-1] == 0) || int64(int(v)) != v {
		rd.fail("bad varint")
		return 0
	}
	rd.b = rd.b[k:]
	return int(v)
}

func (rd *rowReader) i64() int64 {
	if len(rd.b) < 8 {
		rd.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(rd.b)
	rd.b = rd.b[8:]
	return int64(v)
}

func (rd *rowReader) dur() time.Duration { return time.Duration(rd.i64()) }

func (rd *rowReader) f64() float64 {
	v := math.Float64frombits(uint64(rd.i64()))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if rd.err == nil {
			rd.err = errNonFinite
		}
		rd.b = nil
		return 0
	}
	return v
}

func (rd *rowReader) flag() bool {
	switch rd.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	rd.fail("bad bool")
	return false
}

func (rd *rowReader) result(r *cluster.Result) {
	r.Technique = rd.str()
	r.Config = rd.str()
	r.Workload = rd.str()
	r.Outage = rd.dur()
	r.Survived = rd.flag()
	r.CrashedAt = rd.dur()
	r.Perf = rd.f64()
	r.Downtime = rd.dur()
	r.DowntimeMin = rd.dur()
	r.DowntimeMax = rd.dur()
	r.PeakUPSDraw = units.Watts(rd.f64())
	r.PeakBackupDraw = units.Watts(rd.f64())
	r.UPSEnergy = units.WattHours(rd.f64())
	r.UPSRemaining = rd.f64()
	r.Cost = rd.f64()
}

func (rd *rowReader) backup(b *cost.Backup) {
	b.Name = rd.str()
	b.DG = genset.Config{
		PowerCapacity:     units.Watts(rd.f64()),
		StartupDelay:      rd.dur(),
		TransferSteps:     rd.varint(),
		TransferStepDelay: rd.dur(),
		FuelRuntime:       rd.dur(),
		CostPerKWYear:     rd.f64(),
	}
	b.UPS.PowerCapacity = units.Watts(rd.f64())
	b.UPS.Runtime = rd.dur()
	b.UPS.Tech = battery.Technology{
		Name:                 rd.str(),
		PeukertExponent:      rd.f64(),
		FreeRunTime:          rd.dur(),
		PowerCostPerKWYear:   rd.f64(),
		EnergyCostPerKWhYear: rd.f64(),
		MinLoadFraction:      rd.f64(),
	}
	b.UPS.SwitchoverDelay = rd.dur()
	b.UPS.RideThrough = rd.dur()
	b.UPS.Placement = ups.Placement(rd.varint())
}

func (rd *rowReader) process(p *StoredProcess) {
	p.Seed = rd.i64()
	p.Draws = rd.varint()
	p.ArrivalKind = rd.str()
	p.ArrivalMeanNS = rd.i64()
	p.ArrivalShape = rd.f64()
	p.DurationKind = rd.str()
	p.DurationMeanNS = rd.i64()
	p.DurationShape = rd.f64()
	p.Correlation = rd.f64()
	p.Events = rd.varint()
	p.Availability = rd.f64()
	p.ExpectedDowntimeNS = rd.i64()
	p.DowntimeP50NS = rd.i64()
	p.DowntimeP95NS = rd.i64()
	p.DowntimeP99NS = rd.i64()
	p.DowntimeMaxNS = rd.i64()
	p.SurvivalRate = rd.f64()
	p.Perf = rd.f64()
	p.EnergyShortfallWh = rd.f64()
	p.NormCost = rd.f64()
}

// effResult is the row's result for query purposes: the evaluation
// result for evaluate/best rows, the sized operating point's result for
// feasible size rows, nil otherwise.
func (r *StoredRow) effResult() *cluster.Result {
	if r.Result != nil {
		return r.Result
	}
	if r.Sizing != nil {
		return &r.Sizing.Result
	}
	return nil
}

// normCost is the row's cost-axis value: the sizing search's normalized
// cost for size rows, the configuration's normalized cap-ex otherwise.
func (r *StoredRow) normCost() (float64, bool) {
	if r.Sizing != nil {
		return r.Sizing.NormCost, true
	}
	if r.Result != nil {
		return r.Result.Cost, true
	}
	if r.Process != nil {
		return r.Process.NormCost, true
	}
	return 0, false
}
