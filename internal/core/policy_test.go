package core

import (
	"testing"
	"time"

	"backuppower/internal/technique"
	"backuppower/internal/ups"
	"backuppower/internal/workload"
)

func policy(t *testing.T, runtime time.Duration) *AdaptivePolicy {
	t.Helper()
	env := technique.DefaultEnv(16)
	u := ups.NewConfig(env.PeakPower(), runtime)
	p, err := NewAdaptivePolicy(env, workload.Specjbb(), u)
	if err != nil {
		t.Fatalf("NewAdaptivePolicy: %v", err)
	}
	return p
}

func TestPolicyConstructionErrors(t *testing.T) {
	env := technique.DefaultEnv(16)
	bad := ups.NewConfig(env.PeakPower(), 2*time.Minute)
	bad.RideThrough = 0
	if _, err := NewAdaptivePolicy(env, workload.Specjbb(), bad); err == nil {
		t.Error("invalid UPS should fail")
	}
	env.Servers = 0
	if _, err := NewAdaptivePolicy(env, workload.Specjbb(), ups.NewConfig(4000, 2*time.Minute)); err == nil {
		t.Error("invalid env should fail")
	}
}

func TestModePowerOrdering(t *testing.T) {
	p := policy(t, 30*time.Minute)
	prev := p.ModePower(ModeFullService)
	for m := ModeThrottled; m <= ModeHibernate; m++ {
		cur := p.ModePower(m)
		if cur > prev {
			t.Fatalf("%v draws %v > %v of previous mode", m, cur, prev)
		}
		prev = cur
	}
	if p.ModePower(ModeHibernate) != 0 {
		t.Error("hibernate should draw nothing")
	}
}

func TestModePerfOrdering(t *testing.T) {
	p := policy(t, 30*time.Minute)
	if p.ModePerf(ModeFullService) != 1 {
		t.Error("full service perf")
	}
	if p.ModePerf(ModeThrottled) <= 0 || p.ModePerf(ModeThrottled) >= 1 {
		t.Error("throttled perf should be fractional")
	}
	if p.ModePerf(ModeSleep) != 0 || p.ModePerf(ModeHibernate) != 0 {
		t.Error("save-state modes serve nothing")
	}
}

func TestPolicyStartsOptimistic(t *testing.T) {
	// Big battery + fresh outage (expected remaining ~45 min from the
	// heavy-tailed prior): stay at full service.
	p := policy(t, 2*time.Hour)
	d := p.Decide(0, 1.0)
	if d.Mode != ModeFullService {
		t.Errorf("fresh outage mode = %v (%s)", d.Mode, d.Reason)
	}
	if d.Remaining <= 0 {
		t.Error("predictor should give a positive remaining estimate")
	}
}

func TestPolicyEscalatesAsBatteryDrains(t *testing.T) {
	p := policy(t, 10*time.Minute)
	// As the outage drags on and charge drops, the mode must escalate
	// monotonically.
	prev := ModeFullService
	cases := []struct {
		elapsed time.Duration
		charge  float64
	}{
		{0, 1.0},
		{5 * time.Minute, 0.6},
		{15 * time.Minute, 0.35},
		{40 * time.Minute, 0.15},
		{2 * time.Hour, 0.05},
	}
	for _, c := range cases {
		d := p.Decide(c.elapsed, c.charge)
		if d.Mode < prev {
			t.Fatalf("policy de-escalated at %v: %v < %v", c.elapsed, d.Mode, prev)
		}
		prev = d.Mode
	}
	if prev < ModeSleep {
		t.Errorf("after 2h at 5%% charge the policy should be saving state, got %v", prev)
	}
}

func TestPolicyTinyBatterySleepsQuickly(t *testing.T) {
	// A 2-minute battery cannot serve the expected ~30 min remaining of a
	// fresh outage; the policy should jump to a state-preserving mode.
	p := policy(t, 2*time.Minute)
	d := p.Decide(0, 1.0)
	if d.Mode < ModeSleep {
		t.Errorf("2-min battery fresh decision = %v (%s)", d.Mode, d.Reason)
	}
}

func TestPolicyNeverDeEscalates(t *testing.T) {
	p := policy(t, 10*time.Minute)
	escalated := p.Decide(30*time.Minute, 0.2).Mode // forces escalation
	d := p.Decide(31*time.Minute, 0.95)             // battery "recovers" (hypothetical)
	if d.Mode < escalated {
		t.Errorf("policy relaxed from %v to %v", escalated, d.Mode)
	}
}

func TestPolicyResetLearns(t *testing.T) {
	p := policy(t, 30*time.Minute)
	before := p.Predictor.Posterior().Mean()
	for i := 0; i < 200; i++ {
		p.Reset(4 * time.Hour) // a site with dreadful utility power
	}
	after := p.Predictor.Posterior().Mean()
	if after <= before {
		t.Errorf("predictor should learn longer outages: %v vs %v", after, before)
	}
	if p.mode != ModeFullService {
		t.Error("reset should restore full service mode")
	}
}

func TestPolicySkipsModesAboveUPSCap(t *testing.T) {
	// Half-power UPS: full service is unsourceable; first feasible rung
	// must respect the cap.
	env := technique.DefaultEnv(16)
	u := ups.NewConfig(env.PeakPower()/2, 30*time.Minute)
	p, err := NewAdaptivePolicy(env, workload.Specjbb(), u)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Decide(0, 1.0)
	if d.Mode == ModeFullService {
		t.Errorf("full service should be skipped under a half-power cap (%s)", d.Reason)
	}
	if p.ModePower(d.Mode) > u.PowerCapacity {
		t.Errorf("chosen mode %v draws %v above cap %v", d.Mode, p.ModePower(d.Mode), u.PowerCapacity)
	}
}

func TestModeStrings(t *testing.T) {
	names := map[Mode]string{
		ModeFullService: "full-service", ModeThrottled: "throttled",
		ModeConsolidated: "consolidated", ModeSleep: "sleep",
		ModeHibernate: "hibernate", Mode(9): "mode(9)",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d = %q want %q", int(m), got, want)
		}
	}
}
