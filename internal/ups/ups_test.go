package ups

import (
	"testing"
	"time"

	"backuppower/internal/battery"
	"backuppower/internal/units"
)

func TestNewConfigDefaults(t *testing.T) {
	c := NewConfig(units.Megawatt, 2*time.Minute)
	if c.SwitchoverDelay != 10*time.Millisecond {
		t.Errorf("switchover = %v", c.SwitchoverDelay)
	}
	if c.RideThrough != 30*time.Millisecond {
		t.Errorf("ride-through = %v", c.RideThrough)
	}
	if c.Placement != RackLevel {
		t.Errorf("placement = %v", c.Placement)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
}

func TestRuntimeBumpToFreeBase(t *testing.T) {
	c := NewConfig(units.Megawatt, 10*time.Second)
	if c.Runtime != 2*time.Minute {
		t.Errorf("runtime = %v, want free base 2m", c.Runtime)
	}
}

func TestNone(t *testing.T) {
	c := None()
	if c.Provisioned() {
		t.Error("None provisioned")
	}
	if c.AnnualCost() != 0 {
		t.Errorf("None cost = %v", c.AnnualCost())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("None invalid: %v", err)
	}
	if c.CanCarry(1) {
		t.Error("None carries nothing")
	}
}

func TestAnnualCostMatchesTable2(t *testing.T) {
	// 1 MW / 2 min -> $50,000 (0.05 M$).
	if got := float64(NewConfig(units.Megawatt, 2*time.Minute).AnnualCost()); !units.AlmostEqual(got, 50000, 1e-9) {
		t.Errorf("1MW/2min UPS = %v", got)
	}
	// 10 MW / 2 min -> $500,000 (paper rounds to 0.51 M$).
	if got := float64(NewConfig(10*units.Megawatt, 2*time.Minute).AnnualCost()); !units.AlmostEqual(got, 500000, 1e-9) {
		t.Errorf("10MW/2min UPS = %v", got)
	}
	// 10 MW / 42 min -> ~0.83 M$.
	if got := float64(NewConfig(10*units.Megawatt, 42*time.Minute).AnnualCost()); !units.AlmostEqual(got, 833333, 0.001) {
		t.Errorf("10MW/42min UPS = %v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := NewConfig(units.Megawatt, 2*time.Minute)
	bad.PowerCapacity = -1
	if bad.Validate() == nil {
		t.Error("negative capacity should fail")
	}
	bad = NewConfig(units.Megawatt, 2*time.Minute)
	bad.Runtime = time.Second
	if bad.Validate() == nil {
		t.Error("runtime below free base should fail")
	}
	bad = NewConfig(units.Megawatt, 2*time.Minute)
	bad.RideThrough = time.Millisecond // shorter than switchover
	if bad.Validate() == nil {
		t.Error("ride-through < switchover should fail")
	}
	bad = NewConfig(units.Megawatt, 2*time.Minute)
	bad.Tech.PeukertExponent = 0.5
	if bad.Validate() == nil {
		t.Error("bad tech should fail")
	}
}

func TestPlacementString(t *testing.T) {
	for p, want := range map[Placement]string{
		RackLevel: "rack-level", ServerLevel: "server-level", Centralized: "centralized", Placement(9): "placement(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestUnitDrainLifecycle(t *testing.T) {
	c := NewConfig(4*units.Kilowatt, 10*time.Minute)
	u := &Unit{Config: c}
	if u.Remaining() != 1 {
		t.Fatal("fresh unit should be full")
	}
	// Full load for the full rated runtime.
	if got := u.Drain(4*units.Kilowatt, 10*time.Minute); !units.AlmostEqual(got.Seconds(), 600, 1e-6) {
		t.Fatalf("drain = %v", got)
	}
	if u.Remaining() != 0 {
		t.Fatal("should be depleted after rated runtime")
	}
	// Quarter load stretches a full unit to 60 min (lead-acid Fig 3
	// calibration).
	u = &Unit{Config: c}
	if got := u.Drain(units.Kilowatt, 2*time.Hour); !units.AlmostEqual(got.Minutes(), 60, 1e-6) {
		t.Fatalf("sustained at 25%% = %v", got)
	}
}

func TestUnitOverload(t *testing.T) {
	u := &Unit{Config: NewConfig(4*units.Kilowatt, 10*time.Minute)}
	if got := u.Drain(5*units.Kilowatt, time.Minute); got != 0 {
		t.Errorf("overload drain = %v, want 0", got)
	}
	if u.Remaining() != 1 {
		t.Error("overload must not silently consume charge")
	}
}

func TestUnitZeroLoad(t *testing.T) {
	u := &Unit{Config: NewConfig(4*units.Kilowatt, 10*time.Minute)}
	if got := u.Drain(0, time.Hour); got != time.Hour {
		t.Errorf("zero load drain = %v", got)
	}
	if u.Remaining() != 1 {
		t.Error("zero load consumed charge")
	}
}

func TestPackRoundTrip(t *testing.T) {
	c := NewConfig(4*units.Kilowatt, 10*time.Minute)
	p := c.Pack()
	if p.RatedPower != 4*units.Kilowatt || p.RatedRuntime != 10*time.Minute {
		t.Errorf("pack = %+v", p)
	}
	// None yields an empty pack with the tech preserved.
	np := None().Pack()
	if np.RatedPower != 0 {
		t.Errorf("none pack = %+v", np)
	}
	if np.Tech.Name != battery.LeadAcid().Name {
		t.Errorf("none pack tech = %q", np.Tech.Name)
	}
}
