// Package battery models the UPS energy storage used by the paper: battery
// packs whose runtime is a nonlinear (Peukert-law) function of the imposed
// load. Section 3 / Figure 3 of the paper shows the key property this
// package captures — an APC 4 KW pack lasts 10 minutes at 100% load but 60
// minutes at 25% load (delivering 0.66 KWh vs 1 KWh) — and the paper's
// Sleep-L / Throttle+Sleep-L results rely on exactly that low-load stretch.
//
// The pack also models the Ragone-plot "base" energy capacity: composing
// cells to reach a power rating yields some energy for free (the paper's
// FreeRunTime of ~2 minutes at rated power for lead-acid), and extra battery
// modules can be added on top.
package battery

import (
	"errors"
	"fmt"
	"math"
	"time"

	"backuppower/internal/units"
)

// Technology captures a battery chemistry's discharge nonlinearity and
// its cost structure (Section 7 "newer battery technologies": Li-ion trades
// cheaper power for more expensive energy relative to lead-acid).
type Technology struct {
	Name string

	// PeukertExponent k models runtime(load) = ratedRuntime *
	// (ratedPower/load)^k. k = 1 is an ideal linear battery; lead-acid is
	// ~1.1-1.3. The default lead-acid value is calibrated to Figure 3.
	PeukertExponent float64

	// FreeRunTime is the base runtime at rated power that comes "for free"
	// when cells are composed to meet the power rating (Ragone plot).
	FreeRunTime time.Duration

	// PowerCostPerKWYear and EnergyCostPerKWhYear are amortized cap-ex
	// rates. Only the energy beyond the free base capacity is charged.
	PowerCostPerKWYear   float64
	EnergyCostPerKWhYear float64

	// MinLoadFraction is the smallest load (as a fraction of rated power)
	// at which the Peukert stretch still applies; below it the runtime is
	// capped at runtime(MinLoadFraction) to avoid predicting unphysical
	// multi-day runtimes from self-discharge-dominated regimes.
	MinLoadFraction float64
}

// LeadAcid is the paper's default technology, calibrated so a pack rated
// for 10 minutes at full load lasts 60 minutes at 25% load (Figure 3) and
// carries the Table 1 cost rates ($50/KW/yr power electronics amortized over
// 12 years, $50/KWh/yr batteries amortized over 4 years, 2 min free).
func LeadAcid() Technology {
	return Technology{
		Name:                 "lead-acid",
		PeukertExponent:      peukertFromTwoPoints(1.0, 10*time.Minute, 0.25, 60*time.Minute),
		FreeRunTime:          2 * time.Minute,
		PowerCostPerKWYear:   50,
		EnergyCostPerKWhYear: 50,
		MinLoadFraction:      0.02,
	}
}

// LiIon models the Section 7 discussion: flatter discharge curve (k closer
// to 1), cheaper power electronics per KW, pricier energy per KWh, and a
// smaller free base runtime (higher power density point on the Ragone plot).
func LiIon() Technology {
	return Technology{
		Name:                 "li-ion",
		PeukertExponent:      1.05,
		FreeRunTime:          1 * time.Minute,
		PowerCostPerKWYear:   40,
		EnergyCostPerKWhYear: 80,
		MinLoadFraction:      0.02,
	}
}

// peukertFromTwoPoints solves runtime(r1)/runtime(r2) = (r2/r1)^k for k
// given two (load-fraction, runtime) calibration points.
func peukertFromTwoPoints(r1 float64, t1 time.Duration, r2 float64, t2 time.Duration) float64 {
	return math.Log(float64(t2)/float64(t1)) / math.Log(r1/r2)
}

// Validate checks technology parameters.
func (t Technology) Validate() error {
	switch {
	case t.PeukertExponent < 1:
		return fmt.Errorf("battery: %s Peukert exponent %.3f < 1", t.Name, t.PeukertExponent)
	case t.FreeRunTime < 0:
		return fmt.Errorf("battery: %s negative free runtime", t.Name)
	case t.MinLoadFraction <= 0 || t.MinLoadFraction > 1:
		return fmt.Errorf("battery: %s min load fraction %.3f out of (0,1]", t.Name, t.MinLoadFraction)
	}
	return nil
}

// Pack is a provisioned battery: a power rating plus a rated runtime (the
// time the pack sustains its rated power). Everything else — runtime at
// partial load, effective deliverable energy, cost — derives from these.
type Pack struct {
	Tech         Technology
	RatedPower   units.Watts
	RatedRuntime time.Duration // runtime at RatedPower
}

// ErrNoCapacity is returned when draining a pack with no energy provisioned.
var ErrNoCapacity = errors.New("battery: pack has no capacity")

// NewPack builds a pack. A rated runtime below the technology's free base
// runtime is bumped up to it: the Ragone plot gives you that much anyway.
func NewPack(tech Technology, power units.Watts, runtime time.Duration) Pack {
	if runtime < tech.FreeRunTime && power > 0 {
		runtime = tech.FreeRunTime
	}
	return Pack{Tech: tech, RatedPower: power, RatedRuntime: runtime}
}

// RuntimeAt returns how long the pack lasts under a constant load using the
// Peukert relation. Loads above rated power return 0 (the UPS cannot source
// them); non-positive loads return the capped maximum stretch.
func (p Pack) RuntimeAt(load units.Watts) time.Duration {
	if p.RatedPower <= 0 || p.RatedRuntime <= 0 {
		return 0
	}
	if load > p.RatedPower*(1+1e-9) {
		return 0
	}
	frac := float64(load) / float64(p.RatedPower)
	if frac < p.Tech.MinLoadFraction {
		frac = p.Tech.MinLoadFraction
	}
	stretch := math.Pow(1/frac, p.Tech.PeukertExponent)
	return time.Duration(float64(p.RatedRuntime) * stretch)
}

// EffectiveEnergyAt returns the deliverable energy at a constant load. Note
// it grows as load drops — the Figure 3 effect (0.66 KWh at 100%, 1 KWh at
// 25% for the 4 KW / 10 min pack).
func (p Pack) EffectiveEnergyAt(load units.Watts) units.WattHours {
	return load.ForDuration(p.RuntimeAt(load))
}

// RatedEnergy is the nominal provisioned energy: rated power times rated
// runtime. This is the quantity the cost model charges for.
func (p Pack) RatedEnergy() units.WattHours {
	return p.RatedPower.ForDuration(p.RatedRuntime)
}

// FreeEnergy is the base energy that comes free with the power rating.
func (p Pack) FreeEnergy() units.WattHours {
	return p.RatedPower.ForDuration(p.Tech.FreeRunTime)
}

// AnnualCost returns the amortized $/year of the pack: power electronics by
// rating, plus battery modules for energy beyond the free base capacity
// (Equation 2 of the paper).
func (p Pack) AnnualCost() units.DollarsPerYear {
	power := p.Tech.PowerCostPerKWYear * p.RatedPower.KW()
	extra := float64(p.RatedEnergy()-p.FreeEnergy()) / 1e3 // KWh
	if extra < 0 {
		extra = 0
	}
	return units.DollarsPerYear(power + p.Tech.EnergyCostPerKWhYear*extra)
}

// State tracks depletion of a pack under a time-varying load. Depletion is
// accounted fractionally: draining for dt at load L consumes dt/RuntimeAt(L)
// of the pack, the standard piecewise-Peukert approximation. The zero value
// is a full pack (of whatever Pack it is used with).
type State struct {
	used float64 // fraction of capacity consumed, in [0,1]
}

// Remaining returns the unconsumed fraction of the pack.
func (s *State) Remaining() float64 { return 1 - s.used }

// Recharge resets the pack to full (utility restored).
func (s *State) Recharge() { s.used = 0 }

// Drain consumes capacity for sustaining load over dt. It returns the time
// actually sustained (== dt unless the pack empties first, in which case
// the pack is left exactly depleted).
func (s *State) Drain(p Pack, load units.Watts, dt time.Duration) time.Duration {
	if dt <= 0 || load <= 0 {
		return dt
	}
	full := p.RuntimeAt(load)
	if full <= 0 {
		s.used = 1
		return 0
	}
	frac := float64(dt) / float64(full)
	if s.used+frac >= 1 {
		sustained := time.Duration(s.Remaining() * float64(full))
		s.used = 1
		return sustained
	}
	s.used += frac
	return dt
}
