package simkit

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"backuppower/internal/units"
)

func TestTraceBasics(t *testing.T) {
	tr := NewTrace("power", 100)
	tr.Set(10*time.Minute, 200)
	tr.Set(20*time.Minute, 50)

	if got := tr.At(0); got != 100 {
		t.Errorf("At(0) = %v", got)
	}
	if got := tr.At(15 * time.Minute); got != 200 {
		t.Errorf("At(15m) = %v", got)
	}
	if got := tr.At(25 * time.Minute); got != 50 {
		t.Errorf("At(25m) = %v", got)
	}
	if got := tr.At(time.Hour); got != 50 {
		t.Errorf("At(1h) = %v", got)
	}
	if tr.Name() != "power" {
		t.Errorf("Name = %q", tr.Name())
	}
}

func TestTraceIntegrate(t *testing.T) {
	tr := NewTrace("p", 100)
	tr.Set(30*time.Minute, 200)
	// [0,1h]: 100*0.5 + 200*0.5 = 150 Wh
	if got := tr.Integrate(0, time.Hour); !units.AlmostEqual(got, 150, 1e-9) {
		t.Errorf("Integrate = %v, want 150", got)
	}
	// Sub-interval entirely inside first segment.
	if got := tr.Integrate(6*time.Minute, 12*time.Minute); !units.AlmostEqual(got, 10, 1e-9) {
		t.Errorf("Integrate(6m,12m) = %v, want 10", got)
	}
	// Interval past the last sample keeps the last value.
	if got := tr.Integrate(time.Hour, 2*time.Hour); !units.AlmostEqual(got, 200, 1e-9) {
		t.Errorf("Integrate(1h,2h) = %v, want 200", got)
	}
	if got := tr.Integrate(time.Hour, time.Hour); got != 0 {
		t.Errorf("empty interval integrate = %v", got)
	}
}

func TestTraceMeanPeak(t *testing.T) {
	tr := NewTrace("p", 1.0)
	tr.Set(30*time.Minute, 0.5)
	if got := tr.Mean(0, time.Hour); !units.AlmostEqual(got, 0.75, 1e-9) {
		t.Errorf("Mean = %v", got)
	}
}

func TestTraceSameTimeOverwrite(t *testing.T) {
	tr := NewTrace("p", 1)
	tr.Set(time.Minute, 2)
	tr.Set(time.Minute, 3)
	if got := tr.At(2 * time.Minute); got != 3 {
		t.Errorf("overwrite: At = %v, want 3", got)
	}
	if n := len(tr.Samples()); n != 2 {
		t.Errorf("samples = %d, want 2", n)
	}
}

func TestTraceNoChangeCompaction(t *testing.T) {
	tr := NewTrace("p", 5)
	tr.Set(time.Minute, 5)
	tr.Set(2*time.Minute, 5)
	if n := len(tr.Samples()); n != 1 {
		t.Errorf("redundant sets should compact, got %d samples", n)
	}
}

func TestTraceBackwardsPanics(t *testing.T) {
	tr := NewTrace("p", 1)
	tr.Set(time.Minute, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on backwards set")
		}
	}()
	tr.Set(30*time.Second, 3)
}

// Integral over a split point equals sum of parts (additivity property).
func TestTraceIntegralAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTrace("p", rng.Float64()*100)
		at := time.Duration(0)
		for i := 0; i < 20; i++ {
			at += time.Duration(1+rng.Intn(600)) * time.Second
			tr.Set(at, rng.Float64()*100)
		}
		end := at + time.Hour
		mid := time.Duration(rng.Int63n(int64(end)))
		whole := tr.Integrate(0, end)
		parts := tr.Integrate(0, mid) + tr.Integrate(mid, end)
		return units.AlmostEqual(whole, parts, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Mean is bounded by min and max of the signal.
func TestTraceMeanBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTrace("p", 50)
		lo, hi := 50.0, 50.0
		at := time.Duration(0)
		for i := 0; i < 15; i++ {
			at += time.Duration(1+rng.Intn(300)) * time.Second
			v := rng.Float64() * 200
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			tr.Set(at, v)
		}
		m := tr.Mean(0, at+time.Minute)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
