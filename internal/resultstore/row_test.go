package resultstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"backuppower/internal/battery"
	"backuppower/internal/cluster"
	"backuppower/internal/cost"
	"backuppower/internal/genset"
	"backuppower/internal/units"
	"backuppower/internal/ups"
)

// v1EvalPayload is a row exactly as the version-1 JSON codec stored it.
const v1EvalPayload = `{"v":1,"op":"evaluate","servers":8,"workload":"specjbb","config":"NoDG","has_config":true,"technique":"Sleep","outage_ns":300000000000,"result":{"Technique":"","Config":"","Workload":"","Outage":0,"Survived":true,"CrashedAt":0,"Perf":0.8,"Downtime":75000000000,"DowntimeMin":0,"DowntimeMax":0,"PeakUPSDraw":0,"PeakBackupDraw":0,"UPSEnergy":0,"UPSRemaining":0,"Cost":1,"PerfTrace":null,"PowerTrace":null}}`

// fullResult sets every cluster.Result field the codec carries to a
// distinct non-zero value, so a field dropped or swapped in either codec
// half shows up as a round-trip difference.
func fullResult(seed float64) cluster.Result {
	return cluster.Result{
		Technique: "Sleep", Config: "NoDG", Workload: "specjbb",
		Outage: 30 * time.Minute, Survived: true, CrashedAt: 7 * time.Second,
		Perf: 0.25 + seed, Downtime: 3 * time.Minute, DowntimeMin: 2 * time.Minute,
		DowntimeMax: 4 * time.Minute, PeakUPSDraw: units.Watts(1234.5 + seed),
		PeakBackupDraw: units.Watts(2345.25), UPSEnergy: units.WattHours(99.125),
		UPSRemaining: 0.375, Cost: 1.0625 + seed,
	}
}

func fullBackup() cost.Backup {
	return cost.Backup{
		Name: "ups-Sleep",
		DG: genset.Config{
			PowerCapacity: 5000, StartupDelay: 25 * time.Second, TransferSteps: 5,
			TransferStepDelay: 25 * time.Second, FuelRuntime: 48 * time.Hour, CostPerKWYear: 83.3,
		},
		UPS: ups.Config{
			PowerCapacity: 4000, Runtime: 12 * time.Minute,
			Tech: battery.Technology{
				Name: "lead-acid", PeukertExponent: 1.29, FreeRunTime: 2 * time.Minute,
				PowerCostPerKWYear: 50, EnergyCostPerKWhYear: 50, MinLoadFraction: 0.02,
			},
			SwitchoverDelay: 10 * time.Millisecond, RideThrough: 30 * time.Millisecond,
			Placement: ups.Centralized,
		},
	}
}

// codecRows covers every op and payload shape the runner stores: an
// evaluate row, a best row, a feasible and an infeasible size row, and a
// process row, with non-ASCII and empty strings and negative integers.
func codecRows() []StoredRow {
	eval := fullResult(0)
	best := fullResult(0.5)
	best.Survived = false
	proc := processRow(16, "memcached", "", "Throttling(P3)", -42, 8, 0.9995, 0.8)
	proc.Family = "throttling"
	proc.Process.ArrivalShape = 1.5
	proc.Process.DurationShape = 0.8
	proc.Process.Correlation = 0.3
	proc.Process.EnergyShortfallWh = 12.5
	sized := sizeRow(8, "specjbb", "Sleep", 10*time.Minute, true, 0.7)
	sized.Sizing.Backup = fullBackup()
	sized.Sizing.Result = fullResult(0.125)
	return []StoredRow{
		{V: rowSchemaV, Op: "evaluate", Servers: 16, Workload: "specjbb", Config: "NoDG",
			HasConfig: true, Family: "sleep", Technique: "Sleep(low-power)", OutageNS: int64(30 * time.Minute),
			Result: &eval},
		{V: rowSchemaV, Op: "best", Servers: 4, Workload: "wébsearch", Config: "MaxPerf", HasConfig: true,
			Best: "Hibernate", OutageNS: int64(time.Hour), Result: &best},
		sized,
		sizeRow(-3, "", "", 2*time.Hour, false, 0),
		proc,
	}
}

func TestRowCodecRoundTripEveryOp(t *testing.T) {
	for i, r := range codecRows() {
		payload, err := EncodeRow(r)
		if err != nil {
			t.Fatalf("row %d (%s): EncodeRow: %v", i, r.Op, err)
		}
		if payload[0] != rowSchemaV {
			t.Fatalf("row %d: leading byte %d, want %d", i, payload[0], rowSchemaV)
		}
		back, err := DecodeRow(payload)
		if err != nil {
			t.Fatalf("row %d (%s): DecodeRow: %v", i, r.Op, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("row %d (%s) did not round-trip:\n got %+v\nwant %+v", i, r.Op, back, r)
		}
		again, err := EncodeRow(back)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("row %d: re-encoding is not canonical (err %v)", i, err)
		}
	}
}

// TestRowLayoutFieldsPinned pins every struct the codec flattens. A field
// added to or removed from any of them would silently be dropped (or fail
// to compile only on one side), so the codec and this list must change
// together — and rowSchemaV must be bumped, retiring old payloads.
func TestRowLayoutFieldsPinned(t *testing.T) {
	pinned := map[reflect.Type]string{
		reflect.TypeOf(StoredRow{}): "V int, Op string, Servers int, Workload string, Config string, " +
			"HasConfig bool, Family string, Technique string, Best string, OutageNS int64, Feasible bool, " +
			"Result *cluster.Result, Sizing *resultstore.StoredSizing, Process *resultstore.StoredProcess",
		reflect.TypeOf(StoredSizing{}): "Technique string, Backup cost.Backup, Result cluster.Result, NormCost float64",
		reflect.TypeOf(StoredProcess{}): "Seed int64, Draws int, ArrivalKind string, ArrivalMeanNS int64, " +
			"ArrivalShape float64, DurationKind string, DurationMeanNS int64, DurationShape float64, " +
			"Correlation float64, Events int, Availability float64, ExpectedDowntimeNS int64, " +
			"DowntimeP50NS int64, DowntimeP95NS int64, DowntimeP99NS int64, DowntimeMaxNS int64, " +
			"SurvivalRate float64, Perf float64, EnergyShortfallWh float64, NormCost float64",
		reflect.TypeOf(cluster.Result{}): "Technique string, Config string, Workload string, " +
			"Outage time.Duration, Survived bool, CrashedAt time.Duration, Perf float64, " +
			"Downtime time.Duration, DowntimeMin time.Duration, DowntimeMax time.Duration, " +
			"PeakUPSDraw units.Watts, PeakBackupDraw units.Watts, UPSEnergy units.WattHours, " +
			"UPSRemaining float64, Cost float64, PerfTrace *simkit.Trace, PowerTrace *simkit.Trace",
		reflect.TypeOf(cost.Backup{}): "Name string, DG genset.Config, UPS ups.Config",
		reflect.TypeOf(genset.Config{}): "PowerCapacity units.Watts, StartupDelay time.Duration, " +
			"TransferSteps int, TransferStepDelay time.Duration, FuelRuntime time.Duration, CostPerKWYear float64",
		reflect.TypeOf(ups.Config{}): "PowerCapacity units.Watts, Runtime time.Duration, " +
			"Tech battery.Technology, SwitchoverDelay time.Duration, RideThrough time.Duration, Placement ups.Placement",
		reflect.TypeOf(battery.Technology{}): "Name string, PeukertExponent float64, FreeRunTime time.Duration, " +
			"PowerCostPerKWYear float64, EnergyCostPerKWhYear float64, MinLoadFraction float64",
	}
	for typ, want := range pinned {
		var got bytes.Buffer
		for i := 0; i < typ.NumField(); i++ {
			if i > 0 {
				got.WriteString(", ")
			}
			f := typ.Field(i)
			got.WriteString(f.Name + " " + f.Type.String())
		}
		if got.String() != want {
			t.Errorf("%v fields changed — update row.go's codec, bump rowSchemaV, then this pin:\n got %s\nwant %s",
				typ, got.String(), want)
		}
	}
}

// hostileRows are malformed payloads DecodeRow must refuse with an error.
func hostileRows(t *testing.T) map[string][]byte {
	t.Helper()
	valid, err := EncodeRow(codecRows()[0])
	if err != nil {
		t.Fatal(err)
	}
	// A minimal row ends in its flags byte; with an all-zero result
	// appended, the survived bool sits after three empty strings and the
	// 8-byte outage.
	minimal, err := EncodeRow(StoredRow{Op: "best"})
	if err != nil {
		t.Fatal(err)
	}
	flagsAt := len(minimal) - 1
	withResult, err := EncodeRow(StoredRow{Op: "best", Result: &cluster.Result{}})
	if err != nil {
		t.Fatal(err)
	}
	survivedAt := len(minimal) + 3 + 8
	with := func(b []byte, at int, v byte) []byte {
		c := append([]byte(nil), b...)
		c[at] = v
		return c
	}
	// A NaN patched over a sentinel perf value.
	sentinel := codecRows()[0]
	res := *sentinel.Result
	res.Perf = 0.123456789
	sentinel.Result = &res
	nan, err := EncodeRow(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	perfAt := bytes.Index(nan, binary.LittleEndian.AppendUint64(nil, math.Float64bits(res.Perf)))
	binary.LittleEndian.PutUint64(nan[perfAt:], math.Float64bits(math.NaN()))
	return map[string][]byte{
		"empty":          {},
		"v1 json":        []byte(v1EvalPayload),
		"future version": with(valid, 0, rowSchemaV+1),
		"trailing byte":  append(append([]byte(nil), valid...), 0),
		"unknown flag":   with(minimal, flagsAt, 1<<7),
		"huge string":    append([]byte{rowSchemaV}, binary.AppendUvarint(nil, 1<<40)...),
		"non-minimal":    {rowSchemaV, 0x80, 0x00},
		"bad bool":       with(withResult, survivedAt, 2),
		"nan":            nan,
	}
}

func TestDecodeRowRejectsHostileBytes(t *testing.T) {
	for name, payload := range hostileRows(t) {
		if r, err := DecodeRow(payload); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, r)
		}
	}
	// Every strict prefix of every valid payload is truncated.
	for i, r := range codecRows() {
		payload, err := EncodeRow(r)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(payload); n++ {
			if _, err := DecodeRow(payload[:n]); err == nil {
				t.Fatalf("row %d: %d-byte prefix of %d decoded", i, n, len(payload))
			}
		}
	}
	// Non-finite floats are refused on the way in, as the JSON codec did.
	r := codecRows()[0]
	res := *r.Result
	res.Perf = math.Inf(1)
	r.Result = &res
	if _, err := EncodeRow(r); err == nil {
		t.Fatal("EncodeRow accepted an infinite float")
	}
}

// TestDecodeRowAllocationBound: a hostile length field never drives an
// allocation beyond the payload — a 12-byte payload claiming a terabyte
// string costs a few hundred bytes, not the claim.
func TestDecodeRowAllocationBound(t *testing.T) {
	for name, payload := range hostileRows(t) {
		var before, after runtime.MemStats
		const runs = 64
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			DecodeRow(payload)
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		if perCall > uint64(len(payload))+512 {
			t.Errorf("%s: %d bytes allocated per decode of a %d-byte payload", name, perCall, len(payload))
		}
	}
}
