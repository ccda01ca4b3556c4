package battery

import (
	"math"
)

// WearModel captures battery aging: calendar life (chemistry decay
// regardless of use) and cycle life (a Wöhler-style curve of cycles to
// end-of-life versus depth of discharge). Section 2 argues that, unlike
// the peak-shaving literature, backup duty barely cycles its batteries —
// Figure 1's handful of outages a year — so wear "is less important".
// This model makes the comparison explicit.
type WearModel struct {
	// CalendarLifeYears bounds life even for an unused battery.
	CalendarLifeYears float64
	// CyclesAtFullDoD is the rated cycle count at 100% depth of discharge.
	CyclesAtFullDoD float64
	// WoehlerExponent shapes cycles(dod) = CyclesAtFullDoD * dod^-k:
	// shallow cycles are disproportionately cheap.
	WoehlerExponent float64
}

// LeadAcidWear is typical VRLA aging (Table 1's 4-year depreciation).
func LeadAcidWear() WearModel {
	return WearModel{CalendarLifeYears: 4, CyclesAtFullDoD: 500, WoehlerExponent: 1.3}
}

// LiIonWear is typical LFP-class aging (the §7 longer-lifetime argument).
func LiIonWear() WearModel {
	return WearModel{CalendarLifeYears: 10, CyclesAtFullDoD: 3000, WoehlerExponent: 1.1}
}

// CyclesAt returns the cycles to end-of-life at the given depth of
// discharge (fraction of capacity per cycle).
func (w WearModel) CyclesAt(dod float64) float64 {
	if dod <= 0 {
		return math.Inf(1)
	}
	if dod > 1 {
		dod = 1
	}
	return w.CyclesAtFullDoD * math.Pow(dod, -w.WoehlerExponent)
}

// LifeYears combines calendar and cycle aging (independent consumption of
// a shared life budget: 1/life = 1/calendar + cyclesPerYear/cycleLife).
func (w WearModel) LifeYears(cyclesPerYear, dod float64) float64 {
	if cyclesPerYear < 0 {
		cyclesPerYear = 0
	}
	cal := 1 / w.CalendarLifeYears
	cyc := 0.0
	if cyclesPerYear > 0 {
		cyc = cyclesPerYear / w.CyclesAt(dod)
	}
	return 1 / (cal + cyc)
}

// CostMultiplier returns the amortized cost inflation of a duty cycle
// relative to the calendar-life baseline the Table 1 rates assume:
// replacing every LifeYears instead of every CalendarLifeYears.
func (w WearModel) CostMultiplier(cyclesPerYear, dod float64) float64 {
	return w.CalendarLifeYears / w.LifeYears(cyclesPerYear, dod)
}

// BackupDuty is the Figure 1 exposure: a few outages per year, and only
// the long ones discharge deeply.
func BackupDuty() (cyclesPerYear, dod float64) { return 3, 0.6 }

// PeakShavingDuty is the contrasting regime of the energy-storage
// literature the paper cites ([29],[34],[63]): near-daily deep cycling to
// shave the evening peak.
func PeakShavingDuty() (cyclesPerYear, dod float64) { return 300, 0.6 }
