// Package ups models the offline (line-interactive) rack-level UPS units of
// Section 3: battery-backed ride-through devices that detect a utility
// failure in ~10 ms and take over the load, aided by ~30 ms of inherent
// power-supply capacitance in the servers. UPS cap-ex has two dimensions —
// power capacity (inverter/electronics) and energy capacity (battery
// modules) — which is exactly the 2-D underprovisioning space the paper
// explores.
package ups

import (
	"fmt"
	"time"

	"backuppower/internal/battery"
	"backuppower/internal/units"
)

// Placement indicates where UPS units sit in the power hierarchy. The paper
// assumes rack-level (as at Facebook and Microsoft) for efficiency and cost;
// server-level is evaluated in the companion tech report.
type Placement int

// Placement values.
const (
	RackLevel Placement = iota
	ServerLevel
	Centralized
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case RackLevel:
		return "rack-level"
	case ServerLevel:
		return "server-level"
	case Centralized:
		return "centralized"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Config describes the provisioned UPS fleet for the datacenter, expressed
// at datacenter aggregate scale (the simulation treats the rack UPSes of a
// homogeneous datacenter as one aggregate pack, which is exact for the
// uniform workloads the paper evaluates).
type Config struct {
	// PowerCapacity is the aggregate load the UPS electronics can source.
	// Zero means no UPS provisioned.
	PowerCapacity units.Watts

	// Runtime is the rated battery runtime at PowerCapacity. NewConfig
	// bumps it to the technology's free base runtime when lower.
	Runtime time.Duration

	// Tech selects the battery chemistry (lead-acid by default).
	Tech battery.Technology

	// SwitchoverDelay is the outage-detection plus transfer delay of the
	// offline design (~10 ms).
	SwitchoverDelay time.Duration

	// RideThrough is the server PSU capacitance window (~30 ms) that masks
	// the switchover; it is also the window within which instantaneous
	// techniques (throttling) can engage before the UPS sees the load.
	RideThrough time.Duration

	Placement Placement
}

// Defaults from Section 3.
const (
	DefaultSwitchoverDelay = 10 * time.Millisecond
	DefaultRideThrough     = 30 * time.Millisecond
)

// NewConfig builds a rack-level lead-acid UPS with the paper's defaults.
func NewConfig(power units.Watts, runtime time.Duration) Config {
	tech := battery.LeadAcid()
	if power > 0 && runtime < tech.FreeRunTime {
		runtime = tech.FreeRunTime
	}
	if power <= 0 {
		runtime = 0
	}
	return Config{
		PowerCapacity:   power,
		Runtime:         runtime,
		Tech:            tech,
		SwitchoverDelay: DefaultSwitchoverDelay,
		RideThrough:     DefaultRideThrough,
		Placement:       RackLevel,
	}
}

// None returns an unprovisioned (absent) UPS.
func None() Config { return NewConfig(0, 0) }

// Provisioned reports whether any UPS exists.
func (c Config) Provisioned() bool { return c.PowerCapacity > 0 }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PowerCapacity < 0 {
		return fmt.Errorf("ups: negative power capacity %v", c.PowerCapacity)
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if !c.Provisioned() {
		return nil
	}
	switch {
	case c.Runtime < c.Tech.FreeRunTime:
		return fmt.Errorf("ups: runtime %v below free base %v", c.Runtime, c.Tech.FreeRunTime)
	case c.SwitchoverDelay < 0:
		return fmt.Errorf("ups: negative switchover delay")
	case c.RideThrough < c.SwitchoverDelay:
		return fmt.Errorf("ups: ride-through %v shorter than switchover %v — load would drop",
			c.RideThrough, c.SwitchoverDelay)
	}
	return nil
}

// Pack returns the aggregate battery pack implied by the config.
func (c Config) Pack() battery.Pack {
	if !c.Provisioned() {
		return battery.Pack{Tech: c.Tech}
	}
	return battery.NewPack(c.Tech, c.PowerCapacity, c.Runtime)
}

// AnnualCost is Equation (2) of the paper: power electronics by capacity
// plus battery energy beyond the free base.
func (c Config) AnnualCost() units.DollarsPerYear {
	if !c.Provisioned() {
		return 0
	}
	return c.Pack().AnnualCost()
}

// CanCarry reports whether the UPS electronics can source the given load.
func (c Config) CanCarry(load units.Watts) bool {
	return load <= c.PowerCapacity
}

// Unit is the live (stateful) UPS used inside a simulation: a Config plus
// battery depletion state.
type Unit struct {
	Config Config
	state  battery.State
}

// Remaining returns the unconsumed battery fraction.
func (u *Unit) Remaining() float64 { return u.state.Remaining() }

// Drain sustains load for up to dt, returning the time actually sustained
// (shorter if the battery empties). A load above the power capacity is not
// sustainable and returns 0 without consuming charge — the caller must shed
// load first (that is the power-capping obligation underprovisioning
// creates).
func (u *Unit) Drain(load units.Watts, dt time.Duration) time.Duration {
	if load <= 0 {
		return dt
	}
	if !u.Config.CanCarry(load) {
		return 0
	}
	return u.state.Drain(u.Config.Pack(), load, dt)
}
