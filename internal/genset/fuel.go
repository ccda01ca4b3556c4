package genset

import (
	"time"

	"backuppower/internal/units"
)

// FuelModel prices diesel generator operation. Section 3 asserts that
// op-ex (fuel, losses) "is likely to be negligible since these are rarely
// called upon, compared to the cap-ex" — this model makes that claim
// checkable instead of assumed.
type FuelModel struct {
	// FullLoadLPerKWh is the specific consumption at rated load (a Willans
	// line's slope); typical industrial diesels burn ~0.22 L/kWh.
	FullLoadLPerKWh float64
	// NoLoadFraction is the idle burn as a fraction of the full-load rate
	// (engines spin and pump regardless of electrical load).
	NoLoadFraction float64
	// DieselPricePerL is the fuel price.
	DieselPricePerL float64
	// MaintenanceFracPerYear is the annual upkeep (monthly test runs,
	// filters, service contracts) as a fraction of the DG cap-ex.
	MaintenanceFracPerYear float64
}

// DefaultFuel returns representative 2014 numbers.
func DefaultFuel() FuelModel {
	return FuelModel{
		FullLoadLPerKWh:        0.22,
		NoLoadFraction:         0.20,
		DieselPricePerL:        1.0,
		MaintenanceFracPerYear: 0.05,
	}
}

// Consumption returns liters burned running the generator at `load` for
// `dur`: the no-load burn of the installed capacity plus the load-
// proportional term (Willans line).
func (f FuelModel) Consumption(c Config, load units.Watts, dur time.Duration) float64 {
	if !c.Provisioned() || dur <= 0 {
		return 0
	}
	if load > c.PowerCapacity {
		load = c.PowerCapacity
	}
	base := f.NoLoadFraction * f.FullLoadLPerKWh * c.PowerCapacity.KW()
	slope := (1 - f.NoLoadFraction) * f.FullLoadLPerKWh * load.KW()
	return (base + slope) * dur.Hours()
}

// OutageCost prices one outage ride: fuel burned carrying `load` for the
// portion of the outage after the DG transfer completes.
func (f FuelModel) OutageCost(c Config, load units.Watts, outage time.Duration) float64 {
	run := outage - c.TransferCompleteAt()
	if run < 0 {
		run = 0
	}
	return f.Consumption(c, load, run) * f.DieselPricePerL
}

// AnnualOpEx prices a year of ownership: fuel for the expected yearly
// outage hours plus monthly test runs plus maintenance.
func (f FuelModel) AnnualOpEx(c Config, load units.Watts, outagePerYear time.Duration) units.DollarsPerYear {
	if !c.Provisioned() {
		return 0
	}
	fuel := f.OutageCost(c, load, outagePerYear+c.TransferCompleteAt())
	// Monthly 30-minute test runs at 30% load (standard NFPA practice).
	test := 12 * f.Consumption(c, c.PowerCapacity*3/10, 30*time.Minute) * f.DieselPricePerL
	maint := f.MaintenanceFracPerYear * float64(c.AnnualCost())
	return units.DollarsPerYear(fuel + test + maint)
}

// OpExNegligible reports whether annual op-ex stays under the given
// fraction of cap-ex — the paper's Section 3 claim at threshold 0.15.
func (f FuelModel) OpExNegligible(c Config, load units.Watts, outagePerYear time.Duration, threshold float64) bool {
	if !c.Provisioned() {
		return true
	}
	return float64(f.AnnualOpEx(c, load, outagePerYear)) < threshold*float64(c.AnnualCost())
}
