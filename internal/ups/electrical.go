package ups

import (
	"fmt"
	"time"

	"backuppower/internal/units"
)

// Design selects the UPS electrical topology. Section 3: "UPS units can
// either be configured as online (in series) or offline (in parallel),
// where the latter is preferred in today's datacenters to avoid
// double-conversion inefficiencies associated with online UPSes."
type Design int

// Designs.
const (
	// Offline (standby / line-interactive): the load runs on raw utility;
	// the inverter engages only on failure, after a ~10 ms switchover.
	Offline Design = iota
	// Online (double-conversion): the load always runs through
	// AC→DC→AC conversion — zero-transfer-time but a constant efficiency
	// tax every hour of the year.
	Online
)

// String names the design.
func (d Design) String() string {
	switch d {
	case Offline:
		return "offline"
	case Online:
		return "online"
	default:
		return fmt.Sprintf("design(%d)", int(d))
	}
}

// Electrical models the conversion losses of each topology.
type Electrical struct {
	Design Design
	// InverterEfficiency is the DC→AC efficiency at rated load.
	InverterEfficiency float64
	// RectifierEfficiency is the AC→DC stage (online design only).
	RectifierEfficiency float64
	// LowLoadPenalty is the extra fractional loss at light load (power
	// electronics are least efficient near idle); the efficiency curve is
	// eff(load) = rated_eff * (1 - LowLoadPenalty*(1-loadFraction)^2).
	LowLoadPenalty float64
	// StandbyW is the electronics' own idle draw per unit.
	StandbyW units.Watts
}

// DefaultElectrical returns representative electronics for the design.
func DefaultElectrical(d Design) Electrical {
	e := Electrical{
		Design:              d,
		InverterEfficiency:  0.95,
		RectifierEfficiency: 0.96,
		LowLoadPenalty:      0.08,
		StandbyW:            25,
	}
	return e
}

// effAt derates an efficiency for partial load.
func (e Electrical) effAt(rated float64, loadFrac float64) float64 {
	loadFrac = units.Clamp01(loadFrac)
	return rated * (1 - e.LowLoadPenalty*(1-loadFrac)*(1-loadFrac))
}

// NormalLoss is the power wasted during NORMAL operation (utility active)
// to deliver `load` through a UPS rated at `capacity`. This is the number
// that makes datacenters pick offline designs: the offline path wastes only
// the standby electronics; the online path pays double conversion on every
// watt, every hour.
func (e Electrical) NormalLoss(load, capacity units.Watts) units.Watts {
	if capacity <= 0 {
		return 0
	}
	switch e.Design {
	case Online:
		frac := float64(load) / float64(capacity)
		eff := e.effAt(e.RectifierEfficiency, frac) * e.effAt(e.InverterEfficiency, frac)
		if eff <= 0 {
			return e.StandbyW
		}
		return units.Watts(float64(load)*(1/eff-1)) + e.StandbyW
	default:
		return e.StandbyW
	}
}

// AnnualNormalLossKWh integrates the normal-operation loss over a year at
// a constant load.
func (e Electrical) AnnualNormalLossKWh(load, capacity units.Watts) float64 {
	loss := e.NormalLoss(load, capacity)
	return float64(loss.ForDuration(365*24*time.Hour)) / 1e3
}

// AnnualNormalLossCost prices the loss at the given electricity tariff
// ($/KWh).
func (e Electrical) AnnualNormalLossCost(load, capacity units.Watts, tariff float64) units.DollarsPerYear {
	return units.DollarsPerYear(e.AnnualNormalLossKWh(load, capacity) * tariff)
}
