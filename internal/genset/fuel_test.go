package genset

import (
	"testing"
	"time"

	"backuppower/internal/units"
)

func TestConsumptionWillansLine(t *testing.T) {
	f := DefaultFuel()
	c := New(units.Megawatt)
	// Full load for 1 hour: 0.22 L/kWh * 1000 kWh = 220 L.
	full := f.Consumption(c, units.Megawatt, time.Hour)
	if !units.AlmostEqual(full, 220, 1e-9) {
		t.Errorf("full-load burn = %v", full)
	}
	// No load still burns the idle share.
	idle := f.Consumption(c, 0, time.Hour)
	if !units.AlmostEqual(idle, 44, 1e-9) {
		t.Errorf("no-load burn = %v", idle)
	}
	// Half load lands between, above half of full (Willans intercept).
	half := f.Consumption(c, units.Megawatt/2, time.Hour)
	if half <= full/2 || half >= full {
		t.Errorf("half-load burn = %v", half)
	}
	// Loads clamp at capacity; no DG burns nothing.
	if f.Consumption(c, 2*units.Megawatt, time.Hour) != full {
		t.Error("overload should clamp")
	}
	if f.Consumption(None(), units.Megawatt, time.Hour) != 0 {
		t.Error("no DG burns nothing")
	}
}

func TestTankSizedForFuelRuntime(t *testing.T) {
	f := DefaultFuel()
	c := New(units.Megawatt)
	tank := f.Consumption(c, c.PowerCapacity, c.FuelRuntime)
	// 48 h at 220 L/h = 10560 L.
	if !units.AlmostEqual(tank, 220*48, 1e-9) {
		t.Errorf("tank = %v L", tank)
	}
}

func TestOutageCostExcludesTransferWindow(t *testing.T) {
	f := DefaultFuel()
	c := New(units.Megawatt)
	// Outage shorter than the DG ramp: no fuel cost at all.
	if got := f.OutageCost(c, units.Megawatt, time.Minute); got != 0 {
		t.Errorf("sub-ramp outage cost = %v", got)
	}
	long := f.OutageCost(c, units.Megawatt, 2*time.Hour)
	if long <= 0 {
		t.Error("2h outage should burn fuel")
	}
}

func TestPaperOpExNegligibleClaim(t *testing.T) {
	// Section 3's claim: with Figure 1's ~1.5 h of outage per year, DG
	// op-ex is small relative to cap-ex. Check at a 10 MW datacenter.
	f := DefaultFuel()
	c := New(10 * units.Megawatt)
	opex := float64(f.AnnualOpEx(c, 10*units.Megawatt, 90*time.Minute))
	capex := float64(c.AnnualCost())
	if opex <= 0 {
		t.Fatal("op-ex should be positive")
	}
	ratio := opex / capex
	if ratio >= 0.15 {
		t.Errorf("op-ex/cap-ex = %v — the paper's negligibility claim fails", ratio)
	}
	if !f.OpExNegligible(c, 10*units.Megawatt, 90*time.Minute, 0.15) {
		t.Error("OpExNegligible should agree")
	}
	// But a pathological site (continuous outages) breaks the claim.
	if f.OpExNegligible(c, 10*units.Megawatt, 2000*time.Hour, 0.15) {
		t.Error("2000h/year of outage should not be negligible")
	}
	// No DG: trivially negligible.
	if !f.OpExNegligible(None(), units.Megawatt, time.Hour, 0.15) {
		t.Error("no DG should be negligible")
	}
}

func TestAnnualOpExComponents(t *testing.T) {
	f := DefaultFuel()
	c := New(units.Megawatt)
	withOutage := float64(f.AnnualOpEx(c, units.Megawatt, 5*time.Hour))
	noOutage := float64(f.AnnualOpEx(c, units.Megawatt, 0))
	if withOutage <= noOutage {
		t.Error("outage hours should add fuel cost")
	}
	// Even with zero outages, tests + maintenance cost something.
	if noOutage <= 0 {
		t.Error("test runs and maintenance are not free")
	}
	if f.AnnualOpEx(None(), units.Megawatt, time.Hour) != 0 {
		t.Error("no DG has no op-ex")
	}
}
