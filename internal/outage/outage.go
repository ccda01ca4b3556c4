// Package outage models utility power outage statistics: the Figure 1
// distributions of outage frequency and duration for US businesses
// (sources [50, 60] in the paper), a reproducible random outage-trace
// generator, and the Section 7 online duration predictor (a Markov chain
// over duration buckets) used by adaptive outage-handling policies.
package outage

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"backuppower/internal/units"
)

// Bucket is one bin of a histogram over durations (or counts).
type Bucket struct {
	Lo, Hi time.Duration
	Prob   float64
}

// Distribution is a bucketed probability distribution over outage
// durations. Within a bucket, mass is spread uniformly.
type Distribution struct {
	Name    string
	Buckets []Bucket
}

// DurationDistribution returns Figure 1(b): outage duration shares for US
// businesses. The open-ended ">240 min" tail is capped at 8 hours.
func DurationDistribution() Distribution {
	m := time.Minute
	return Distribution{
		Name: "us-business-outage-duration",
		Buckets: []Bucket{
			{0, 1 * m, 0.31},
			{1 * m, 5 * m, 0.27},
			{5 * m, 30 * m, 0.14},
			{30 * m, 120 * m, 0.17},
			{120 * m, 240 * m, 0.06},
			{240 * m, 480 * m, 0.05},
		},
	}
}

// FrequencyBucket is one bin of Figure 1(a): yearly outage counts.
type FrequencyBucket struct {
	Lo, Hi int // inclusive count range
	Prob   float64
}

// FrequencyDistribution returns Figure 1(a): outages per year for US
// businesses. The "7+" tail is capped at 12.
func FrequencyDistribution() []FrequencyBucket {
	return []FrequencyBucket{
		{0, 0, 0.17},
		{1, 2, 0.40},
		{3, 6, 0.30},
		{7, 12, 0.13},
	}
}

// Validate checks the distribution sums to 1 and is ordered.
func (d Distribution) Validate() error {
	total := 0.0
	var prev time.Duration
	for i, b := range d.Buckets {
		if b.Hi <= b.Lo {
			return fmt.Errorf("outage: bucket %d empty range", i)
		}
		if b.Lo != prev {
			return fmt.Errorf("outage: bucket %d not contiguous", i)
		}
		if b.Prob < 0 {
			return fmt.Errorf("outage: bucket %d negative probability", i)
		}
		total += b.Prob
		prev = b.Hi
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("outage: probabilities sum to %v", total)
	}
	return nil
}

// CDF returns P(duration <= t).
func (d Distribution) CDF(t time.Duration) float64 {
	p := 0.0
	for _, b := range d.Buckets {
		switch {
		case t >= b.Hi:
			p += b.Prob
		case t > b.Lo:
			frac := float64(t-b.Lo) / float64(b.Hi-b.Lo)
			p += b.Prob * frac
		}
	}
	if p > 1 {
		p = 1 // guard the floating-point sum
	}
	return p
}

// Survival returns P(duration > t).
func (d Distribution) Survival(t time.Duration) float64 { return 1 - d.CDF(t) }

// Mean returns the expected outage duration.
func (d Distribution) Mean() time.Duration {
	var mean float64
	for _, b := range d.Buckets {
		mid := float64(b.Lo+b.Hi) / 2
		mean += b.Prob * mid
	}
	return time.Duration(mean)
}

// Quantile returns the q-quantile (q in [0,1]) of the distribution.
func (d Distribution) Quantile(q float64) time.Duration {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return d.Buckets[len(d.Buckets)-1].Hi
	}
	acc := 0.0
	for _, b := range d.Buckets {
		if acc+b.Prob >= q {
			frac := (q - acc) / b.Prob
			return b.Lo + time.Duration(frac*float64(b.Hi-b.Lo))
		}
		acc += b.Prob
	}
	return d.Buckets[len(d.Buckets)-1].Hi
}

// RemainingQuantile returns the q-quantile of the remaining duration given
// the outage has already lasted t: the r such that
// P(D <= t+r | D > t) = q. Unlike the mean remaining time it is not
// dominated by the heavy tail, which makes it the right optimism knob for
// an online policy (the median remaining of a fresh outage is ~4 minutes
// even though the mean is ~45).
func (d Distribution) RemainingQuantile(t time.Duration, q float64) time.Duration {
	surv := d.Survival(t)
	if surv <= 1e-12 {
		return 0
	}
	target := d.CDF(t) + units.Clamp01(q)*surv
	at := d.Quantile(target)
	if at <= t {
		return 0
	}
	return at - t
}

// Sample draws a duration from the distribution.
func (d Distribution) Sample(rng *rand.Rand) time.Duration {
	return d.Quantile(rng.Float64())
}

// Event is one outage in a yearly trace.
type Event struct {
	Start    time.Duration // offset into the year
	Duration time.Duration
}

// Generator produces reproducible yearly outage traces from the Figure 1
// distributions.
type Generator struct {
	Durations Distribution
	Frequency []FrequencyBucket
	rng       *rand.Rand
}

// NewGenerator creates a generator with the paper's distributions and a
// deterministic seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{
		Durations: DurationDistribution(),
		Frequency: FrequencyDistribution(),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// DeriveSeed maps a (base seed, stream index) pair to an independent
// deterministic seed via a splitmix64 finalizer. It is the seeding
// discipline for parallel Monte-Carlo fan-outs: each worker (e.g. each
// simulated year) gets its own generator seeded by DeriveSeed(seed, i),
// so traces are independent of both execution order and worker count —
// parallel and serial runs see identical streams.
func DeriveSeed(seed, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(stream)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Year samples one year of outages, sorted by start time and
// non-overlapping.
func (g *Generator) Year() []Event {
	n := g.sampleCount()
	if n == 0 {
		return nil
	}
	year := 365 * 24 * time.Hour
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, Event{
			Start:    time.Duration(g.rng.Int63n(int64(year))),
			Duration: g.Durations.Sample(g.rng),
		})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	// Clip overlaps: an outage cannot begin during another outage.
	out := events[:1]
	for _, e := range events[1:] {
		last := &out[len(out)-1]
		if e.Start < last.Start+last.Duration {
			continue
		}
		out = append(out, e)
	}
	return out
}

func (g *Generator) sampleCount() int {
	u := g.rng.Float64()
	acc := 0.0
	for _, b := range g.Frequency {
		acc += b.Prob
		if u <= acc {
			if b.Hi == b.Lo {
				return b.Lo
			}
			return b.Lo + g.rng.Intn(b.Hi-b.Lo+1)
		}
	}
	last := g.Frequency[len(g.Frequency)-1]
	return last.Hi
}

// TotalOutageTime sums the durations of a trace.
func TotalOutageTime(events []Event) time.Duration {
	var total time.Duration
	for _, e := range events {
		total += e.Duration
	}
	return total
}
