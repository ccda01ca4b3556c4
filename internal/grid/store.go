package grid

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/outage"
	"backuppower/internal/resultstore"
	"backuppower/internal/units"
)

// rowStoreBox wraps the Store interface so it can sit behind an atomic
// pointer (interfaces are not directly atomically swappable).
type rowStoreBox struct{ s resultstore.Store }

// rowStorePtr holds the process-global row store. It defaults to absent:
// the zero configuration dispatches every row exactly as before the store
// existed.
var rowStorePtr atomic.Pointer[rowStoreBox]

// SetRowStore attaches (or, with nil, detaches) a persistent row store
// consulted by every Runner before dispatch. Serving binaries call it
// once at startup from -store-dir; the caller owns Close. This is the
// only attachment point: core keeps no persistent tier (its scenario
// memo is memory-only), and point rows ('R') and process rows ('P')
// share one WAL and block sequence without colliding.
func SetRowStore(s resultstore.Store) {
	if s == nil {
		rowStorePtr.Store(nil)
		return
	}
	rowStorePtr.Store(&rowStoreBox{s: s})
}

// rowStore returns the attached row store, or nil.
func rowStore() resultstore.Store {
	if b := rowStorePtr.Load(); b != nil {
		return b.s
	}
	return nil
}

// storableRow reports whether a point can be fingerprinted for the
// persistent store: its technique must be a flat comparable value (the
// same rule core's memo cache applies) so the %#v rendering in
// rowInvariant is deterministic. Non-storable rows simply dispatch as if
// no store were attached.
func storableRow(p *Point) bool {
	return p.Technique == nil || reflect.TypeOf(p.Technique).Comparable()
}

// rowInvariant digests the outage-invariant row coordinates — everything
// identifying the row except its outage and its plan-local index. The
// index is deliberately excluded: the same point reached from two
// different grid specs shares one stored row, and the index is re-stamped
// at emission. The "row/v1" prefix versions the digest.
func rowInvariant(op string, p *Point) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "row/v1|op=%s|servers=%d|load=%#v|hascfg=%t|cfg=%#v|family=%s|tech=%T%#v",
		op, p.Servers, p.Workload, p.HasConfig, p.Config, p.Family, p.Technique, p.Technique)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// processInvariant digests a process row's coordinates: the point-row
// invariant content plus the full process spec (sans seed, which is the
// key stamp the way the outage is for point rows). The distinct
// "prow/v1" prefix and the 'P' namespace byte together guarantee a
// process row's fingerprint can never alias a point row's.
func processInvariant(op string, p *Point) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "prow/v1|op=%s|servers=%d|load=%#v|hascfg=%t|cfg=%#v|family=%s|tech=%T%#v|draws=%d|arr=%#v|dur=%#v|corr=%v",
		op, p.Servers, p.Workload, p.HasConfig, p.Config, p.Family, p.Technique, p.Technique,
		p.Process.Draws, p.Process.Arrival, p.Process.Duration, p.Process.Correlation)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// rowKey is the persistent store key for one plan row: the 'R' namespace
// stamped with the outage for point rows, the 'P' namespace stamped with
// the process seed for process rows.
func rowKey(op string, p *Point) resultstore.Key {
	if p.Process != nil {
		return resultstore.NewKey(resultstore.NSProcessRow, processInvariant(op, p), p.Process.Seed)
	}
	return resultstore.NewKey(resultstore.NSRow, rowInvariant(op, p), int64(p.Outage))
}

// storedFromRow converts a successfully evaluated row to its persistent
// form. ok is false for rows that are not stored: row-level errors
// (reruns retry them) and traced results (never produced by the runner).
func storedFromRow(op string, row *RowResult) (resultstore.StoredRow, bool) {
	if row.Err != nil {
		return resultstore.StoredRow{}, false
	}
	p := &row.Point
	sr := resultstore.StoredRow{
		Op:        op,
		Servers:   p.Servers,
		Workload:  p.Workload.Name,
		HasConfig: p.HasConfig,
		Family:    p.Family,
		OutageNS:  int64(p.Outage),
	}
	if p.HasConfig {
		sr.Config = p.Config.Name
	}
	if p.Technique != nil {
		sr.Technique = p.Technique.Name()
	}
	switch op {
	case OpSize:
		sr.Feasible = row.Feasible
		if row.Feasible {
			sr.Sizing = &resultstore.StoredSizing{
				Technique: row.Sizing.Technique,
				Backup:    row.Sizing.Backup,
				Result:    row.Sizing.Result,
				NormCost:  row.Sizing.NormCost,
			}
		}
	case OpBest:
		sr.Best = row.Best
		r := row.Result
		sr.Result = &r
	default: // OpEvaluate
		if p.Process != nil {
			if row.Process == nil {
				return resultstore.StoredRow{}, false
			}
			sr.Process = storedProcess(p.Process, row.Process)
		} else {
			r := row.Result
			sr.Result = &r
		}
	}
	return sr, true
}

// storedProcess flattens a resolved process spec plus its evaluation
// into the store's model-free payload form.
func storedProcess(p *outage.Process, r *core.ProcessResult) *resultstore.StoredProcess {
	return &resultstore.StoredProcess{
		Seed:           p.Seed,
		Draws:          p.Draws,
		ArrivalKind:    p.Arrival.Kind,
		ArrivalMeanNS:  int64(p.Arrival.Mean),
		ArrivalShape:   p.Arrival.Shape,
		DurationKind:   p.Duration.Kind,
		DurationMeanNS: int64(p.Duration.Mean),
		DurationShape:  p.Duration.Shape,
		Correlation:    p.Correlation,

		Events:             r.Events,
		Availability:       r.Availability,
		ExpectedDowntimeNS: int64(r.ExpectedDowntime),
		DowntimeP50NS:      int64(r.DowntimeP50),
		DowntimeP95NS:      int64(r.DowntimeP95),
		DowntimeP99NS:      int64(r.DowntimeP99),
		DowntimeMaxNS:      int64(r.DowntimeMax),
		SurvivalRate:       r.SurvivalRate,
		Perf:               r.Perf,
		EnergyShortfallWh:  float64(r.EnergyShortfallWh),
		NormCost:           r.Cost,
	}
}

// processFromStored reconstructs the process spec a stored row was
// evaluated against (the coordinate side of StoredProcess).
func processFromStored(sp *resultstore.StoredProcess) *outage.Process {
	return &outage.Process{
		Seed:  sp.Seed,
		Draws: sp.Draws,
		Arrival: outage.Dist{
			Kind:  sp.ArrivalKind,
			Mean:  time.Duration(sp.ArrivalMeanNS),
			Shape: sp.ArrivalShape,
		},
		Duration: outage.Dist{
			Kind:  sp.DurationKind,
			Mean:  time.Duration(sp.DurationMeanNS),
			Shape: sp.DurationShape,
		},
		Correlation: sp.Correlation,
	}
}

// processResultFromStored reconstructs the core.ProcessResult payload of
// a stored process row.
func processResultFromStored(sr *resultstore.StoredRow) core.ProcessResult {
	sp := sr.Process
	return core.ProcessResult{
		Technique:         sr.Technique,
		Config:            sr.Config,
		Workload:          sr.Workload,
		Draws:             sp.Draws,
		Events:            sp.Events,
		Availability:      sp.Availability,
		ExpectedDowntime:  time.Duration(sp.ExpectedDowntimeNS),
		DowntimeP50:       time.Duration(sp.DowntimeP50NS),
		DowntimeP95:       time.Duration(sp.DowntimeP95NS),
		DowntimeP99:       time.Duration(sp.DowntimeP99NS),
		DowntimeMax:       time.Duration(sp.DowntimeMaxNS),
		SurvivalRate:      sp.SurvivalRate,
		Perf:              sp.Perf,
		EnergyShortfallWh: units.WattHours(sp.EnergyShortfallWh),
		Cost:              sp.NormCost,
	}
}

// rowFromStored reconstructs a RowResult from a stored payload, cross-
// checking the stored coordinates against the requesting point (the
// 120-bit fingerprint makes a mismatch astronomically unlikely, but a
// mismatch must degrade to a recompute, never to a wrong row). The
// point — with its plan-local index — comes from the live plan, so the
// emitted row is byte-identical to a cold evaluation.
func rowFromStored(op string, p Point, sr *resultstore.StoredRow) (RowResult, bool) {
	if sr.Op != op || sr.Servers != p.Servers || sr.Workload != p.Workload.Name ||
		sr.HasConfig != p.HasConfig || sr.Family != p.Family || sr.OutageNS != int64(p.Outage) {
		return RowResult{}, false
	}
	if p.HasConfig && sr.Config != p.Config.Name {
		return RowResult{}, false
	}
	wantTech := ""
	if p.Technique != nil {
		wantTech = p.Technique.Name()
	}
	if sr.Technique != wantTech {
		return RowResult{}, false
	}
	if (p.Process == nil) != (sr.Process == nil) {
		return RowResult{}, false
	}
	if p.Process != nil && *processFromStored(sr.Process) != *p.Process {
		return RowResult{}, false
	}
	row := RowResult{Point: p}
	switch op {
	case OpSize:
		row.Feasible = sr.Feasible
		if sr.Feasible {
			if sr.Sizing == nil {
				return RowResult{}, false
			}
			row.Sizing = core.OperatingPoint{
				Technique: sr.Sizing.Technique,
				Backup:    sr.Sizing.Backup,
				Result:    sr.Sizing.Result,
				NormCost:  sr.Sizing.NormCost,
			}
		}
	case OpBest:
		if sr.Result == nil {
			return RowResult{}, false
		}
		row.Best = sr.Best
		row.Result = *sr.Result
	default: // OpEvaluate
		if p.Process != nil {
			pr := processResultFromStored(sr)
			row.Process = &pr
			break
		}
		if sr.Result == nil {
			return RowResult{}, false
		}
		row.Result = *sr.Result
	}
	return row, true
}

// DTOFromStored converts a stored row to the wire RowDTO shape — the
// exact bytes the sweep surfaces stream for the same row, with Index 0
// (stored rows are plan-independent; /v1/results readers identify rows by
// coordinates, not position). Shared with httpapi so the read surface
// cannot drift from the sweep encoding.
func DTOFromStored(sr *resultstore.StoredRow) RowDTO {
	d := RowDTO{
		Op:        sr.Op,
		Servers:   sr.Servers,
		Workload:  sr.Workload,
		Family:    sr.Family,
		Technique: sr.Technique,
	}
	if sr.Process != nil {
		pd := ProcessDTOFromProcess(processFromStored(sr.Process))
		d.Process = &pd
	} else {
		d.Outage = time.Duration(sr.OutageNS).String()
	}
	if sr.HasConfig {
		d.Config = sr.Config
	}
	switch sr.Op {
	case OpSize:
		feasible := sr.Feasible
		d.Feasible = &feasible
		if sr.Sizing != nil {
			d.Technique = sr.Sizing.Technique
			d.NormCost = sr.Sizing.NormCost
			b := NewBackupDTO(sr.Sizing.Backup)
			d.Backup = &b
			r := NewResultDTO(sr.Sizing.Result)
			d.Result = &r
		}
	case OpBest:
		d.Best = sr.Best
		if sr.Result != nil {
			r := NewResultDTO(*sr.Result)
			d.Result = &r
		}
	default: // OpEvaluate
		if sr.Process != nil {
			r := NewProcessResultDTO(processResultFromStored(sr))
			d.ProcessResult = &r
		} else if sr.Result != nil {
			r := NewResultDTO(*sr.Result)
			d.Result = &r
		}
	}
	return d
}

// shardStoreState carries one shard's store bookkeeping from the consult
// pass to the write-back pass: the per-point keys (valid where keyed is
// set) so cold rows write through without re-hashing.
type shardStoreState struct {
	keys  []resultstore.Key
	keyed []bool
}

// consultStore splits a shard into warm rows (served from the store) and
// cold points (still to dispatch). merged holds warm rows at their shard
// positions; coldPts/coldPos list the rest in shard order. The invariant
// digest is amortized across runs of batchable points, mirroring the
// batch dispatch itself: a dense outage axis hashes its coordinates once.
func consultStore(store resultstore.Store, op string, pts []Point, merged []RowResult) (coldPts []Point, coldPos []int, st shardStoreState) {
	st = shardStoreState{
		keys:  make([]resultstore.Key, len(pts)),
		keyed: make([]bool, len(pts)),
	}
	var inv [32]byte
	haveInv := false
	for i := range pts {
		p := &pts[i]
		if !storableRow(p) {
			haveInv = false
			coldPts = append(coldPts, *p)
			coldPos = append(coldPos, i)
			continue
		}
		if p.Process != nil {
			// Process rows never batch, so there is nothing to amortize:
			// each gets its own 'P'-namespace key.
			haveInv = false
			st.keys[i] = rowKey(op, p)
		} else {
			if !haveInv || (i > 0 && !batchable(&pts[i-1], p)) {
				inv = rowInvariant(op, p)
				haveInv = true
			}
			st.keys[i] = resultstore.NewKey(resultstore.NSRow, inv, int64(p.Outage))
		}
		st.keyed[i] = true
		if payload, ok := store.Get(st.keys[i]); ok {
			if sr, err := resultstore.DecodeRow(payload); err == nil {
				if row, ok := rowFromStored(op, *p, &sr); ok {
					merged[i] = row
					continue
				}
			}
		}
		coldPts = append(coldPts, *p)
		coldPos = append(coldPos, i)
	}
	return coldPts, coldPos, st
}

// writeBack persists one freshly computed row (best-effort; encode
// refusals and write failures degrade to a future recompute).
func (st *shardStoreState) writeBack(store resultstore.Store, op string, pos int, row *RowResult) {
	if !st.keyed[pos] {
		return
	}
	sr, ok := storedFromRow(op, row)
	if !ok {
		return
	}
	payload, err := resultstore.EncodeRow(sr)
	if err != nil {
		return
	}
	store.Put(st.keys[pos], payload)
}
