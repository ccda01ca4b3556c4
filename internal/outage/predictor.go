package outage

import (
	"fmt"
	"time"
)

// Predictor is the Section 7 online outage-duration predictor over the
// duration buckets of the historical distribution. As an outage evolves,
// the predictor conditions on the elapsed time and yields quantiles of the
// remaining duration — the signal an adaptive policy uses to decide when
// to stop throttling and start saving state.
//
// The predictor can also learn online: Observe folds completed outages into
// the bucket counts, so a datacenter's own utility history gradually
// replaces the national prior.
type Predictor struct {
	dist   Distribution
	counts []float64 // per-bucket observation weights (pseudo-counts)
	prior  float64   // weight given to the historical prior
}

// NewPredictor builds a predictor seeded with the historical distribution
// as a prior worth priorWeight observations.
func NewPredictor(dist Distribution, priorWeight float64) (*Predictor, error) {
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	if priorWeight <= 0 {
		return nil, fmt.Errorf("outage: non-positive prior weight %v", priorWeight)
	}
	p := &Predictor{dist: dist, prior: priorWeight, counts: make([]float64, len(dist.Buckets))}
	for i, b := range dist.Buckets {
		p.counts[i] = b.Prob * priorWeight
	}
	return p, nil
}

// Observe records a completed outage of the given duration.
func (p *Predictor) Observe(d time.Duration) {
	for i, b := range p.dist.Buckets {
		if d < b.Hi || i == len(p.dist.Buckets)-1 {
			p.counts[i]++
			return
		}
	}
}

// Posterior returns the current bucketed distribution (prior + observed).
func (p *Predictor) Posterior() Distribution {
	total := 0.0
	for _, c := range p.counts {
		total += c
	}
	out := Distribution{Name: p.dist.Name + "-posterior", Buckets: make([]Bucket, len(p.dist.Buckets))}
	for i, b := range p.dist.Buckets {
		out.Buckets[i] = Bucket{Lo: b.Lo, Hi: b.Hi, Prob: p.counts[i] / total}
	}
	return out
}

// RemainingQuantile conditions on elapsed outage time.
func (p *Predictor) RemainingQuantile(elapsed time.Duration, q float64) time.Duration {
	return p.Posterior().RemainingQuantile(elapsed, q)
}
