package capping

import (
	"testing"
	"testing/quick"

	"backuppower/internal/server"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

func cfg() server.Config { return server.DefaultConfig() }

// floor is the lowest per-server active power any setting reaches: the
// frontier's deepest point.
func floor(c server.Config, util float64) units.Watts {
	f := Frontier(c, util)
	return f[len(f)-1].Power
}

func TestSpaceComplete(t *testing.T) {
	c := cfg()
	space := Space(c, 0.9)
	if want := len(c.PStates) * c.TStates; len(space) != want {
		t.Fatalf("space = %d, want %d", len(space), want)
	}
	// Sorted by descending speed.
	for i := 1; i < len(space); i++ {
		if space[i].Speed > space[i-1].Speed {
			t.Fatalf("not sorted at %d", i)
		}
	}
	// Fastest is P0/T0 at full power.
	if space[0].PState != 0 || space[0].TState != 0 || space[0].Speed != 1 {
		t.Errorf("fastest = %+v", space[0])
	}
}

func TestFrontierPareto(t *testing.T) {
	f := Frontier(cfg(), 0.9)
	if len(f) < 2 {
		t.Fatalf("frontier too small: %d", len(f))
	}
	for i := 1; i < len(f); i++ {
		if f[i].Speed >= f[i-1].Speed {
			t.Errorf("speed not strictly descending at %d", i)
		}
		if f[i].Power >= f[i-1].Power {
			t.Errorf("power not strictly descending at %d", i)
		}
	}
}

func TestBestRespectsBudget(t *testing.T) {
	c := cfg()
	fl := floor(c, 0.9)
	peak := c.ActivePower(0.9, c.PStates[0], 1)
	for budget := fl; budget <= peak; budget += 5 {
		s, ok := Best(c, 0.9, budget)
		if !ok {
			t.Fatalf("budget %v >= floor should fit", budget)
		}
		if s.Power > budget {
			t.Fatalf("setting %v draws %v over budget %v", s, s.Power, budget)
		}
	}
	// Below the floor: infeasible.
	if _, ok := Best(c, 0.9, fl-1); ok {
		t.Error("below-floor budget should fail")
	}
}

func TestBestMonotoneInBudget(t *testing.T) {
	c := cfg()
	f := func(b1, b2 uint8) bool {
		lo := floor(c, 0.9)
		bud1 := lo + units.Watts(b1)
		bud2 := lo + units.Watts(b2)
		if bud1 > bud2 {
			bud1, bud2 = bud2, bud1
		}
		s1, ok1 := Best(c, 0.9, bud1)
		s2, ok2 := Best(c, 0.9, bud2)
		return ok1 && ok2 && s2.Speed >= s1.Speed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerfUnderBudget(t *testing.T) {
	c := cfg()
	w := workload.Memcached()
	full, _, ok := PerfUnderBudget(c, w, 300)
	if !ok || full != 1 {
		t.Errorf("unconstrained perf = %v ok=%v", full, ok)
	}
	half, s, ok := PerfUnderBudget(c, w, 130)
	if !ok {
		t.Fatal("130W budget should be feasible")
	}
	if half >= full || half <= 0 {
		t.Errorf("capped perf = %v (setting %v)", half, s)
	}
	if _, _, ok := PerfUnderBudget(c, w, 50); ok {
		t.Error("sub-idle budget should fail")
	}
}

func TestFloorAboveIdle(t *testing.T) {
	c := cfg()
	fl := floor(c, 0.95)
	if fl <= c.IdleW {
		t.Errorf("floor %v should exceed idle %v", fl, c.IdleW)
	}
	if fl >= c.PeakW {
		t.Errorf("floor %v should undercut peak", fl)
	}
	// Lower utilization lowers the floor.
	if floor(c, 0.3) >= fl {
		t.Error("floor should drop with utilization")
	}
}
