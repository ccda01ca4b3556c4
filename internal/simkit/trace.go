// Package simkit records piecewise-constant signals over virtual time: the
// power and performance traces a scenario walk can emit for timelines.
package simkit

import (
	"fmt"
	"time"
)

// Sample is one step of a piecewise-constant signal: the signal holds Value
// from At until the next sample's At.
type Sample struct {
	At    time.Duration
	Value float64
}

// Trace records a piecewise-constant signal over virtual time (server power
// draw, aggregate backup load, normalized application performance). It
// supports exact integration and peak queries, which is how the framework
// derives the energy and power capacity a scenario demands from the backup
// infrastructure.
type Trace struct {
	name    string
	samples []Sample
}

// NewTrace creates a trace with an initial value holding from t=0.
func NewTrace(name string, initial float64) *Trace {
	return &Trace{name: name, samples: []Sample{{At: 0, Value: initial}}}
}

// Name returns the trace's diagnostic name.
func (t *Trace) Name() string { return t.name }

// Set records that the signal changes to v at time at. Times must be
// non-decreasing; setting the same time twice overwrites (last write wins),
// matching "several state changes within one event instant".
func (t *Trace) Set(at time.Duration, v float64) {
	last := &t.samples[len(t.samples)-1]
	if at < last.At {
		panic(fmt.Sprintf("simkit: trace %q set at %v before last sample %v", t.name, at, last.At))
	}
	if at == last.At {
		last.Value = v
		return
	}
	if last.Value == v {
		return // no change; keep the trace compact
	}
	t.samples = append(t.samples, Sample{At: at, Value: v})
}

// At returns the signal value at time at (the value of the latest sample not
// after at).
func (t *Trace) At(at time.Duration) float64 {
	v := t.samples[0].Value
	for _, s := range t.samples {
		if s.At > at {
			break
		}
		v = s.Value
	}
	return v
}

// Samples returns a copy of the recorded steps.
func (t *Trace) Samples() []Sample {
	out := make([]Sample, len(t.samples))
	copy(out, t.samples)
	return out
}

// Integrate returns the exact integral of the signal over [from, to] in
// value·hours. For a power trace in watts this is watt-hours.
func (t *Trace) Integrate(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	total := 0.0
	for i, s := range t.samples {
		segStart := s.At
		segEnd := to
		if i+1 < len(t.samples) {
			segEnd = t.samples[i+1].At
		}
		if segEnd <= from || segStart >= to {
			continue
		}
		if segStart < from {
			segStart = from
		}
		if segEnd > to {
			segEnd = to
		}
		total += s.Value * (segEnd - segStart).Hours()
	}
	return total
}

// Mean returns the time-average of the signal over [from, to].
func (t *Trace) Mean(from, to time.Duration) float64 {
	if to <= from {
		return t.At(from)
	}
	return t.Integrate(from, to) / (to - from).Hours()
}
