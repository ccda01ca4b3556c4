package geo

import (
	"testing"

	"backuppower/internal/units"
)

func fleet(t *testing.T, n int, util float64) Fleet {
	t.Helper()
	f, err := Uniform(n, util, 0.3, 42)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return f
}

func TestUniformValid(t *testing.T) {
	f := fleet(t, 4, 0.7)
	if len(f.Sites) != 4 {
		t.Fatalf("sites = %d", len(f.Sites))
	}
	for _, s := range f.Sites {
		if h := (s.Capacity - s.Load) / s.Capacity; !units.AlmostEqual(h, 0.3, 1e-9) {
			t.Errorf("%s headroom = %v", s.Name, h)
		}
	}
	if _, err := Uniform(1, 0.5, 0.3, 1); err == nil {
		t.Error("single site should fail")
	}
}

func TestValidateErrors(t *testing.T) {
	f := fleet(t, 3, 0.7)
	f.Sites[0].Capacity = 0
	if f.Validate() == nil {
		t.Error("zero capacity should fail")
	}
	f = fleet(t, 3, 0.7)
	f.Sites[1].Name = f.Sites[0].Name
	if f.Validate() == nil {
		t.Error("duplicate names should fail")
	}
	f = fleet(t, 3, 0.7)
	f.WANPenalty = 1
	if f.Validate() == nil {
		t.Error("WAN penalty 1 should fail")
	}
	f = fleet(t, 3, 0.7)
	f.Sites[0].Load = 2
	if f.Validate() == nil {
		t.Error("load above capacity should fail")
	}
}

func TestFailoverLevelBounds(t *testing.T) {
	f := fleet(t, 4, 0.7)
	if got := f.FailoverLevel(0); got != 1 {
		t.Errorf("no failures level = %v", got)
	}
	if got := f.FailoverLevel(4); got != 0 {
		t.Errorf("all failed level = %v", got)
	}
	prev := 1.0
	for down := 1; down < 4; down++ {
		l := f.FailoverLevel(down)
		if l <= 0 || l >= 1 {
			t.Errorf("level(%d) = %v out of (0,1)", down, l)
		}
		if l > prev {
			t.Errorf("level should fall with more failures")
		}
		prev = l
	}
}

func TestHeadroomDeterminesAbsorption(t *testing.T) {
	// 4 sites at 75% load: one failure displaces 0.75, survivors' spare
	// is 3*0.25 = 0.75 — exactly absorbed, only the WAN penalty bites.
	tight, _ := Uniform(4, 0.75, 0.3, 1)
	lvl := tight.FailoverLevel(1)
	want := (3*0.75 + 0.75*0.7) / 3.0 // survivors + penalized absorbed, over total
	if !units.AlmostEqual(lvl, want, 1e-9) {
		t.Errorf("level = %v, want %v", lvl, want)
	}
	// At 95% load there is almost no headroom: most displaced traffic is
	// shed.
	packed, _ := Uniform(4, 0.95, 0.3, 1)
	if packed.FailoverLevel(1) >= lvl {
		t.Error("packed fleet should serve less after a failure")
	}
	// Zero WAN penalty and plenty of headroom: a single failure is
	// invisible.
	roomy, _ := Uniform(4, 0.5, 0, 1)
	if got := roomy.FailoverLevel(1); !units.AlmostEqual(got, 1, 1e-9) {
		t.Errorf("roomy level = %v, want 1", got)
	}
}

func TestRequiredHeadroom(t *testing.T) {
	// The paper's "adequate spare capacity" quantified: N sites surviving
	// K failures need K/N headroom.
	if got := RequiredHeadroom(4, 1); !units.AlmostEqual(got, 0.25, 1e-9) {
		t.Errorf("4/1 headroom = %v", got)
	}
	if got := RequiredHeadroom(10, 2); !units.AlmostEqual(got, 0.2, 1e-9) {
		t.Errorf("10/2 headroom = %v", got)
	}
	if RequiredHeadroom(3, 0) != 0 || RequiredHeadroom(2, 2) != 0 {
		t.Error("degenerate cases should be 0")
	}
	// Sanity: a fleet provisioned at exactly that headroom absorbs the
	// failure fully (WAN penalty aside).
	f, _ := Uniform(4, 0.75, 0, 1)
	if got := f.FailoverLevel(1); !units.AlmostEqual(got, 1, 1e-9) {
		t.Errorf("exact-headroom level = %v", got)
	}
}

func TestSimulateYearShape(t *testing.T) {
	f := fleet(t, 4, 0.8)
	rep, err := f.SimulateYear(1)
	if err != nil {
		t.Fatalf("SimulateYear: %v", err)
	}
	if rep.WorstLevel < 0 || rep.WorstLevel > 1 {
		t.Errorf("worst level = %v", rep.WorstLevel)
	}
	if rep.ServiceLossTime > rep.DegradedTime {
		t.Errorf("loss %v exceeds degraded %v", rep.ServiceLossTime, rep.DegradedTime)
	}
	if rep.SiteOutages > 0 && rep.DegradedTime == 0 {
		t.Error("outages should degrade service")
	}
	// Decorrelated sites: simultaneous failures are rare across years.
	overlapYears := 0
	for y := int64(0); y < 50; y++ {
		r, err := f.SimulateYear(y)
		if err != nil {
			t.Fatal(err)
		}
		if r.OverlapEvents > 0 {
			overlapYears++
		}
	}
	if overlapYears > 25 {
		t.Errorf("overlaps in %d/50 years — outages look correlated", overlapYears)
	}
}

func TestSimulateYearDeterministic(t *testing.T) {
	f := fleet(t, 3, 0.8)
	a, _ := f.SimulateYear(7)
	b, _ := f.SimulateYear(7)
	if a != b {
		t.Error("same year should reproduce")
	}
}

func TestSimulateYearInvalidFleet(t *testing.T) {
	var f Fleet
	if _, err := f.SimulateYear(1); err == nil {
		t.Error("invalid fleet should fail")
	}
}
