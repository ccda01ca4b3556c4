package battery

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"backuppower/internal/units"
)

// apcPack is the Figure 3 reference battery: 4 KW max power, 10 min at
// full load.
func apcPack() Pack {
	return NewPack(LeadAcid(), 4*units.Kilowatt, 10*time.Minute)
}

func TestFigure3Calibration(t *testing.T) {
	p := apcPack()
	// 100% load -> 10 minutes, 0.66 KWh.
	if got := p.RuntimeAt(4 * units.Kilowatt); got != 10*time.Minute {
		t.Errorf("runtime@100%% = %v, want 10m", got)
	}
	e100 := p.EffectiveEnergyAt(4 * units.Kilowatt)
	if !units.AlmostEqual(e100.KWh(), 0.667, 0.01) {
		t.Errorf("energy@100%% = %v, want ~0.66 KWh", e100)
	}
	// 25% load -> 60 minutes, 1 KWh.
	r25 := p.RuntimeAt(1 * units.Kilowatt)
	if !units.AlmostEqual(r25.Minutes(), 60, 1e-6) {
		t.Errorf("runtime@25%% = %v, want 60m", r25)
	}
	e25 := p.EffectiveEnergyAt(1 * units.Kilowatt)
	if !units.AlmostEqual(e25.KWh(), 1.0, 1e-6) {
		t.Errorf("energy@25%% = %v, want 1 KWh", e25)
	}
	// 50% load: strictly between the endpoints, superlinear stretch
	// (Peukert) so > 20 minutes.
	r50 := p.RuntimeAt(2 * units.Kilowatt)
	if r50 <= 20*time.Minute || r50 >= 60*time.Minute {
		t.Errorf("runtime@50%% = %v, want in (20m, 60m)", r50)
	}
}

func TestTechnologyValidate(t *testing.T) {
	if err := LeadAcid().Validate(); err != nil {
		t.Errorf("lead-acid invalid: %v", err)
	}
	if err := LiIon().Validate(); err != nil {
		t.Errorf("li-ion invalid: %v", err)
	}
	bad := LeadAcid()
	bad.PeukertExponent = 0.9
	if bad.Validate() == nil {
		t.Error("k<1 should be invalid")
	}
	bad = LeadAcid()
	bad.MinLoadFraction = 0
	if bad.Validate() == nil {
		t.Error("zero min load fraction should be invalid")
	}
	bad = LeadAcid()
	bad.FreeRunTime = -time.Minute
	if bad.Validate() == nil {
		t.Error("negative free runtime should be invalid")
	}
}

func TestOverload(t *testing.T) {
	p := apcPack()
	if got := p.RuntimeAt(5 * units.Kilowatt); got != 0 {
		t.Errorf("overload runtime = %v, want 0", got)
	}
}

func TestLowLoadCap(t *testing.T) {
	p := apcPack()
	tiny := p.RuntimeAt(1 * units.Watt)
	floor := p.RuntimeAt(units.Watts(float64(p.RatedPower) * p.Tech.MinLoadFraction))
	if tiny != floor {
		t.Errorf("runtime below min-load fraction should cap: %v vs %v", tiny, floor)
	}
}

func TestFreeRuntimeBump(t *testing.T) {
	// Requesting less runtime than the free base capacity yields the base.
	p := NewPack(LeadAcid(), 10*units.Kilowatt, 30*time.Second)
	if p.RatedRuntime != 2*time.Minute {
		t.Errorf("RatedRuntime = %v, want bumped to 2m", p.RatedRuntime)
	}
	// Zero-power pack stays zero.
	z := NewPack(LeadAcid(), 0, 0)
	if z.RatedRuntime != 0 || z.RuntimeAt(0) != 0 {
		t.Errorf("zero pack misbehaves: %+v", z)
	}
}

func TestAnnualCostBaseOnly(t *testing.T) {
	// 1000 KW at 2 min (the free base): only power cost, $50/KW/yr.
	p := NewPack(LeadAcid(), units.Megawatt, 2*time.Minute)
	if got := float64(p.AnnualCost()); !units.AlmostEqual(got, 50000, 1e-9) {
		t.Errorf("cost = %v, want $50000/yr", got)
	}
}

func TestAnnualCostExtraEnergy(t *testing.T) {
	// 10 MW at 42 min: $50/KW*10000 + $50/KWh*(10000*(40/60)) =
	// 500000 + 333333 = 833333 -> the paper's Table 2 "0.83 M$" UPS row.
	p := NewPack(LeadAcid(), 10*units.Megawatt, 42*time.Minute)
	got := float64(p.AnnualCost())
	if !units.AlmostEqual(got, 833333, 0.001) {
		t.Errorf("cost = %v, want ~833333", got)
	}
}

func TestRatedVsFreeEnergy(t *testing.T) {
	p := NewPack(LeadAcid(), 4*units.Kilowatt, 10*time.Minute)
	if got := p.RatedEnergy().KWh(); !units.AlmostEqual(got, 4.0/6.0, 1e-9) {
		t.Errorf("rated energy = %v", got)
	}
	if got := p.FreeEnergy().KWh(); !units.AlmostEqual(got, 4.0/30.0, 1e-9) {
		t.Errorf("free energy = %v", got)
	}
}

func TestDrainExact(t *testing.T) {
	p := apcPack()
	var s State
	// Drain at full load for 5 minutes -> half used.
	got := s.Drain(p, 4*units.Kilowatt, 5*time.Minute)
	if got != 5*time.Minute {
		t.Fatalf("sustained = %v", got)
	}
	if !units.AlmostEqual(s.Remaining(), 0.5, 1e-9) {
		t.Fatalf("remaining = %v, want 0.5", s.Remaining())
	}
	// Remaining half at 25% load -> 30 more minutes.
	if got := s.Remaining() * p.RuntimeAt(1*units.Kilowatt).Minutes(); !units.AlmostEqual(got, 30, 1e-6) {
		t.Fatalf("time to empty = %vm, want 30m", got)
	}
	// Drain past empty truncates.
	sustained := s.Drain(p, 1*units.Kilowatt, time.Hour)
	if !units.AlmostEqual(sustained.Minutes(), 30, 1e-6) {
		t.Fatalf("sustained = %v, want 30m", sustained)
	}
	if s.Remaining() != 0 {
		t.Fatal("pack should be depleted")
	}
	s.Recharge()
	if s.Remaining() != 1 {
		t.Fatal("recharge failed")
	}
}

func TestDrainZeroLoad(t *testing.T) {
	p := apcPack()
	var s State
	if got := s.Drain(p, 0, time.Hour); got != time.Hour {
		t.Errorf("zero load drain = %v", got)
	}
	if s.used != 0 {
		t.Errorf("zero load should not consume, used=%v", s.used)
	}
}

func TestDrainOverload(t *testing.T) {
	p := apcPack()
	var s State
	if got := s.Drain(p, 8*units.Kilowatt, time.Minute); got != 0 {
		t.Errorf("overload drain sustained %v, want 0", got)
	}
	if s.Remaining() != 0 {
		t.Error("overload should deplete immediately")
	}
}

// Property: piecewise drain at a constant load sums to the same total
// sustained time as RuntimeAt, regardless of how the interval is chopped.
func TestDrainPiecewiseConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := apcPack()
		load := units.Watts(500 + rng.Float64()*3500)
		want := p.RuntimeAt(load)
		var s State
		var total time.Duration
		for s.Remaining() > 0 {
			chunk := time.Duration(1+rng.Intn(300)) * time.Second
			total += s.Drain(p, load, chunk)
		}
		return units.AlmostEqual(total.Seconds(), want.Seconds(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: runtime is monotonically non-increasing in load.
func TestRuntimeMonotone(t *testing.T) {
	p := apcPack()
	prev := p.RuntimeAt(100 * units.Watt)
	for w := units.Watts(200); w <= 4000; w += 100 {
		cur := p.RuntimeAt(w)
		if cur > prev {
			t.Fatalf("runtime not monotone at %v: %v > %v", w, cur, prev)
		}
		prev = cur
	}
}

// Property: deliverable energy grows as load shrinks (Peukert, k>1).
func TestEffectiveEnergyMonotone(t *testing.T) {
	p := apcPack()
	prev := p.EffectiveEnergyAt(4000)
	for w := units.Watts(3900); w >= 200; w -= 100 {
		cur := p.EffectiveEnergyAt(w)
		if cur < prev {
			t.Fatalf("effective energy shrank at %v: %v < %v", w, cur, prev)
		}
		prev = cur
	}
}

func TestLiIonFlatterThanLeadAcid(t *testing.T) {
	la := NewPack(LeadAcid(), 4*units.Kilowatt, 10*time.Minute)
	li := NewPack(LiIon(), 4*units.Kilowatt, 10*time.Minute)
	// At 25% load lead-acid stretches more than li-ion.
	if la.RuntimeAt(units.Kilowatt) <= li.RuntimeAt(units.Kilowatt) {
		t.Errorf("lead-acid stretch %v should exceed li-ion %v",
			la.RuntimeAt(units.Kilowatt), li.RuntimeAt(units.Kilowatt))
	}
	// Li-ion energy is pricier: a long-runtime pack costs more on li-ion.
	laLong := NewPack(LeadAcid(), units.Megawatt, time.Hour)
	liLong := NewPack(LiIon(), units.Megawatt, time.Hour)
	if liLong.AnnualCost() <= laLong.AnnualCost() {
		t.Errorf("li-ion long-runtime pack should cost more: %v vs %v",
			liLong.AnnualCost(), laLong.AnnualCost())
	}
}
