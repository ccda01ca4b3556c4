package outage

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"backuppower/internal/units"
)

func TestDistributionsValid(t *testing.T) {
	if err := DurationDistribution().Validate(); err != nil {
		t.Fatalf("duration dist invalid: %v", err)
	}
	total := 0.0
	for _, b := range FrequencyDistribution() {
		total += b.Prob
	}
	if !units.AlmostEqual(total, 1.0, 1e-9) {
		t.Errorf("frequency sums to %v", total)
	}
}

func TestPaperHeadlineStats(t *testing.T) {
	d := DurationDistribution()
	// "over 58% of outages are shorter than 5 minutes".
	if got := d.CDF(5 * time.Minute); !units.AlmostEqual(got, 0.58, 1e-9) {
		t.Errorf("CDF(5m) = %v, want 0.58", got)
	}
	// "restored utility power for more than 30% of outages before even
	// starting to use the DG" (DG fully ramped ~2-2.5 min; <1 min bucket
	// alone is 31%).
	if got := d.CDF(time.Minute); got < 0.30 {
		t.Errorf("CDF(1m) = %v, want >= 0.31", got)
	}
	// The paper's headline: outages up to 40 minutes cover the bulk
	// (~75%+) of all outages.
	if got := d.CDF(40 * time.Minute); got < 0.73 {
		t.Errorf("CDF(40m) = %v, want > 0.73", got)
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	d := DurationDistribution()
	prev := -1.0
	for m := 0; m <= 500; m += 5 {
		c := d.CDF(time.Duration(m) * time.Minute)
		if c < prev {
			t.Fatalf("CDF not monotone at %dm", m)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of range at %dm: %v", m, c)
		}
		prev = c
	}
	if got := d.CDF(0); got != 0 {
		t.Errorf("CDF(0) = %v", got)
	}
	if got := d.CDF(9 * time.Hour); !units.AlmostEqual(got, 1, 1e-9) {
		t.Errorf("CDF(9h) = %v", got)
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	d := DurationDistribution()
	f := func(q float64) bool {
		if q < 0.01 || q > 0.99 {
			return true
		}
		tq := d.Quantile(q)
		return units.AlmostEqual(d.CDF(tq), q, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Values: nil}); err != nil {
		t.Error(err)
	}
	if d.Quantile(0) != 0 {
		t.Error("Quantile(0)")
	}
	if d.Quantile(1) != 480*time.Minute {
		t.Errorf("Quantile(1) = %v", d.Quantile(1))
	}
}

func TestMeanPlausible(t *testing.T) {
	// Heavy-ish tail: mean should land well above the median.
	d := DurationDistribution()
	mean := d.Mean()
	median := d.Quantile(0.5)
	if mean <= median {
		t.Errorf("mean %v should exceed median %v", mean, median)
	}
	if mean < 20*time.Minute || mean > 90*time.Minute {
		t.Errorf("mean = %v, implausible", mean)
	}
}

func TestSampleWithinSupport(t *testing.T) {
	d := DurationDistribution()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s := d.Sample(rng)
		if s < 0 || s > 480*time.Minute {
			t.Fatalf("sample %v out of support", s)
		}
	}
}

func TestGeneratorReproducible(t *testing.T) {
	a := NewGenerator(42).Year()
	b := NewGenerator(42).Year()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestGeneratorTraceShape(t *testing.T) {
	g := NewGenerator(7)
	year := 365 * 24 * time.Hour
	counts := map[int]int{}
	for i := 0; i < 500; i++ {
		evs := g.Year()
		counts[len(evs)]++
		var prevEnd time.Duration
		for _, e := range evs {
			if e.Start < prevEnd {
				t.Fatalf("overlapping outages")
			}
			if e.Start > year {
				t.Fatalf("outage starts after year end")
			}
			if e.Duration <= 0 || e.Duration > 480*time.Minute {
				t.Fatalf("duration %v out of support", e.Duration)
			}
			prevEnd = e.Start + e.Duration
		}
	}
	// ~17% of years should have zero outages (Figure 1a).
	zeros := float64(counts[0]) / 500
	if zeros < 0.10 || zeros > 0.25 {
		t.Errorf("zero-outage years = %v, want ~0.17", zeros)
	}
}

func TestTotalOutageTime(t *testing.T) {
	evs := []Event{{0, time.Minute}, {time.Hour, 2 * time.Minute}}
	if got := TotalOutageTime(evs); got != 3*time.Minute {
		t.Errorf("total = %v", got)
	}
	if got := TotalOutageTime(nil); got != 0 {
		t.Errorf("empty total = %v", got)
	}
}

func TestValidateCatchesBadDistributions(t *testing.T) {
	bad := Distribution{Buckets: []Bucket{{0, time.Minute, 0.5}, {2 * time.Minute, 3 * time.Minute, 0.5}}}
	if bad.Validate() == nil {
		t.Error("gap should fail")
	}
	bad = Distribution{Buckets: []Bucket{{0, time.Minute, 0.5}}}
	if bad.Validate() == nil {
		t.Error("sum<1 should fail")
	}
	bad = Distribution{Buckets: []Bucket{{time.Minute, time.Minute, 1}}}
	if bad.Validate() == nil {
		t.Error("empty range should fail")
	}
}
