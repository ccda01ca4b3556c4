package outage

import (
	"testing"
	"time"

	"backuppower/internal/units"
)

func TestNewPredictor(t *testing.T) {
	p, err := NewPredictor(DurationDistribution(), 100)
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	// Prior alone reproduces the historical distribution.
	post := p.Posterior()
	hist := DurationDistribution()
	for i := range post.Buckets {
		if !units.AlmostEqual(post.Buckets[i].Prob, hist.Buckets[i].Prob, 1e-9) {
			t.Errorf("bucket %d: %v vs %v", i, post.Buckets[i].Prob, hist.Buckets[i].Prob)
		}
	}
	if _, err := NewPredictor(DurationDistribution(), 0); err == nil {
		t.Error("zero prior weight should fail")
	}
	if _, err := NewPredictor(Distribution{}, 1); err == nil {
		t.Error("invalid distribution should fail")
	}
}

func TestObserveShiftsPosterior(t *testing.T) {
	p, _ := NewPredictor(DurationDistribution(), 10)
	// A site that only ever sees multi-hour outages.
	for i := 0; i < 100; i++ {
		p.Observe(3 * time.Hour)
	}
	post := p.Posterior()
	// The 120-240 min bucket should now dominate.
	if post.Buckets[4].Prob < 0.8 {
		t.Errorf("observed bucket prob = %v, want > 0.8", post.Buckets[4].Prob)
	}
	if err := post.Validate(); err != nil {
		t.Errorf("posterior invalid: %v", err)
	}
	// The expected duration of a fresh outage should now be hours.
	if rem := post.Mean(); rem < time.Hour {
		t.Errorf("expected duration = %v", rem)
	}
}

func TestObserveTailCap(t *testing.T) {
	p, _ := NewPredictor(DurationDistribution(), 10)
	p.Observe(20 * time.Hour) // beyond support: lands in the last bucket
	post := p.Posterior()
	last := len(post.Buckets) - 1
	if post.Buckets[last].Prob <= DurationDistribution().Buckets[last].Prob {
		t.Error("tail observation should raise the last bucket")
	}
}

func TestPredictorConditionalsMatchDistribution(t *testing.T) {
	p, _ := NewPredictor(DurationDistribution(), 50)
	d := DurationDistribution()
	for _, elapsed := range []time.Duration{0, 2 * time.Minute, time.Hour} {
		for _, q := range []float64{0.5, 0.9} {
			if got, want := p.RemainingQuantile(elapsed, q), d.RemainingQuantile(elapsed, q); !units.AlmostEqual(got.Seconds(), want.Seconds(), 1e-6) {
				t.Errorf("RemainingQuantile(%v, %v) = %v, want %v", elapsed, q, got, want)
			}
		}
	}
}
