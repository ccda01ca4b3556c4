package server

import (
	"testing"
	"testing/quick"

	"backuppower/internal/units"
)

func TestDefaultConfigCalibration(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	// Idle 80 W, peak 250 W at full util / P0 / no throttle.
	if got := c.ActivePower(0, c.PStates[0], 1); got != 80 {
		t.Errorf("idle = %v", got)
	}
	if got := c.ActivePower(1, c.PStates[0], 1); got != 250 {
		t.Errorf("peak = %v", got)
	}
	// 7 P-states, 8 T-states per the paper.
	if len(c.PStates) != 7 {
		t.Errorf("P-states = %d", len(c.PStates))
	}
	if c.TStates != 8 {
		t.Errorf("T-states = %d", c.TStates)
	}
	// S3 power ~5 W/server (2-4 W/DIMM range scaled to self-refresh).
	sp := c.SleepPower()
	if sp < 3 || sp > 8 {
		t.Errorf("sleep power = %v, want ~5 W", sp)
	}
}

func TestMakePStatesShape(t *testing.T) {
	ps := MakePStates(7, 0.4)
	if ps[0].FreqRatio != 1.0 || ps[0].DynPowerMul != 1.0 {
		t.Errorf("P0 = %+v", ps[0])
	}
	last := ps[len(ps)-1]
	if !units.AlmostEqual(last.FreqRatio, 0.4, 1e-9) {
		t.Errorf("Pmin freq = %v", last.FreqRatio)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].FreqRatio >= ps[i-1].FreqRatio {
			t.Fatalf("freq not descending at %d", i)
		}
		if ps[i].DynPowerMul >= ps[i-1].DynPowerMul {
			t.Fatalf("power not descending at %d", i)
		}
	}
	// Cubic-ish: power drops faster than frequency.
	if last.DynPowerMul >= last.FreqRatio {
		t.Errorf("DVFS power %v should undercut freq %v", last.DynPowerMul, last.FreqRatio)
	}
	// Degenerate single state.
	one := MakePStates(1, 0.4)
	if len(one) != 1 || one[0].FreqRatio != 1.0 {
		t.Errorf("single pstate = %+v", one)
	}
	if got := MakePStates(0, 0.4); len(got) != 1 {
		t.Errorf("n=0 should clamp to 1, got %d", len(got))
	}
}

func TestActivePowerMonotonicity(t *testing.T) {
	c := DefaultConfig()
	f := func(u1, u2 float64) bool {
		a, b := units.Clamp01(u1), units.Clamp01(u2)
		if a > b {
			a, b = b, a
		}
		return c.ActivePower(a, c.PStates[0], 1) <= c.ActivePower(b, c.PStates[0], 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Deeper P-state never draws more at the same util.
	for i := 1; i < len(c.PStates); i++ {
		if c.ActivePower(1, c.PStates[i], 1) > c.ActivePower(1, c.PStates[i-1], 1) {
			t.Errorf("P%d draws more than P%d", i, i-1)
		}
	}
}

func TestActivePowerBounds(t *testing.T) {
	c := DefaultConfig()
	for _, p := range c.PStates {
		for ti := 0; ti < c.TStates; ti++ {
			w := c.ActivePower(1, p, c.TStateDuty(ti))
			if w < c.IdleW || w > c.PeakW {
				t.Errorf("power %v out of [idle,peak] at P%d T%d", w, p.Index, ti)
			}
		}
	}
}

func TestTStateDuty(t *testing.T) {
	c := DefaultConfig()
	if got := c.TStateDuty(0); got != 1.0 {
		t.Errorf("T0 = %v", got)
	}
	if got := c.TStateDuty(c.TStates - 1); !units.AlmostEqual(got, 1.0/8, 1e-9) {
		t.Errorf("T7 = %v", got)
	}
	if got := c.TStateDuty(-3); got != 1.0 {
		t.Errorf("clamped low = %v", got)
	}
	if got := c.TStateDuty(99); got != c.TStateDuty(c.TStates-1) {
		t.Errorf("clamped high = %v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.PeakW = bad.IdleW
	if bad.Validate() == nil {
		t.Error("peak<=idle should fail")
	}
	bad = DefaultConfig()
	bad.PStates = nil
	if bad.Validate() == nil {
		t.Error("no pstates should fail")
	}
	bad = DefaultConfig()
	bad.TStates = 0
	if bad.Validate() == nil {
		t.Error("no tstates should fail")
	}
	bad = DefaultConfig()
	bad.DIMMs = 0
	if bad.Validate() == nil {
		t.Error("no DIMMs should fail")
	}
	bad = DefaultConfig()
	bad.PStates = []PState{{Index: 0, FreqRatio: 2.0, DynPowerMul: 1}}
	if bad.Validate() == nil {
		t.Error("freq>1 should fail")
	}
	bad = DefaultConfig()
	bad.PStates = []PState{{0, 0.5, 0.5}, {1, 0.8, 0.8}}
	if bad.Validate() == nil {
		t.Error("non-descending should fail")
	}
}
