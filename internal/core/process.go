package core

import (
	"context"
	"math"
	"sort"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/cost"
	"backuppower/internal/outage"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// ProcessResult is the process-level counterpart of cluster.Result: the
// fold of a stochastic outage process's Monte-Carlo draws over the
// scenario simulator. Durations aggregate per yearly draw; percentiles
// are nearest-rank over the per-draw yearly downtimes.
type ProcessResult struct {
	// Technique, Config, and Workload identify the evaluated scenario
	// (mirroring cluster.Result's echo fields).
	Technique string
	Config    string
	Workload  string

	// Draws is the number of Monte-Carlo yearly traces evaluated;
	// Events is the total outage-event count across all of them.
	Draws  int
	Events int

	// Availability is the annualized availability: 1 minus the expected
	// yearly downtime over the year, clamped into [0, 1].
	Availability float64

	// ExpectedDowntime is the mean total downtime per yearly draw.
	ExpectedDowntime time.Duration

	// DowntimeP50/P95/P99/Max are nearest-rank percentiles of the
	// per-draw yearly downtime (p50 ≤ p95 ≤ p99 ≤ max by construction).
	DowntimeP50 time.Duration
	DowntimeP95 time.Duration
	DowntimeP99 time.Duration
	DowntimeMax time.Duration

	// SurvivalRate is the fraction of draws in which no event lost
	// volatile state (every event's Result.Survived).
	SurvivalRate float64

	// Perf is the event-duration-weighted mean normalized performance
	// across every drawn outage window (1 when no events were drawn).
	Perf float64

	// EnergyShortfallWh is the expected yearly unserved energy: the mean
	// over draws of sum((1-Perf_e) * duration_e * peak power) — the
	// energy the datacenter would have delivered at full performance but
	// could not, in watt-hours.
	EnergyShortfallWh units.WattHours

	// Cost is the configuration's normalized annual cap-ex (identical to
	// cluster.Result.Cost for the same config).
	Cost float64
}

// EvaluateProcessCtx evaluates a backup configuration and technique
// against a stochastic outage process: it expands every Monte-Carlo draw
// into its yearly event trace, folds the outage-axis batch kernel
// (EvaluateBatch) over all drawn durations in one call, and aggregates
// per draw. Determinism matches the scalar path: the result is a pure
// function of the inputs, independent of cache state or call order. It
// stops early when ctx is cancelled.
func (f *Framework) EvaluateProcessCtx(ctx context.Context, b cost.Backup, tech technique.Technique, w workload.Spec, p outage.Process) (ProcessResult, error) {
	if err := p.Validate(); err != nil {
		return ProcessResult{}, &InputError{Field: "process", Reason: err.Error()}
	}
	if err := ctx.Err(); err != nil {
		return ProcessResult{}, err
	}

	// Expand every draw up front so the whole process evaluates through
	// one batch call: the kernel digests the invariant scenario content
	// once and the memo cache collapses repeated durations across draws.
	draws := make([][]outage.Event, p.Draws)
	var durations []time.Duration
	for i := range draws {
		draws[i] = p.Draw(i)
		for _, e := range draws[i] {
			durations = append(durations, e.Duration)
		}
	}

	var results []cluster.Result
	if len(durations) > 0 {
		var err error
		results, err = f.EvaluateBatchCtx(ctx, b, tech, w, durations)
		if err != nil {
			return ProcessResult{}, err
		}
	}

	pr := ProcessResult{
		Technique: tech.Name(),
		Config:    b.Name,
		Workload:  w.Name,
		Draws:     p.Draws,
		Events:    len(durations),
	}

	peak := f.Env.PeakPower()
	perDraw := make([]time.Duration, p.Draws)
	var sumDowntime time.Duration
	var weightedPerf, sumPerfWeight, sumShortfall float64
	survived := 0
	k := 0
	for i, events := range draws {
		ok := true
		var total time.Duration
		for range events {
			res := &results[k]
			total = addSat(total, res.Downtime)
			weightedPerf += res.Perf * float64(durations[k])
			sumPerfWeight += float64(durations[k])
			sumShortfall += (1 - res.Perf) * durations[k].Hours() * float64(peak)
			if !res.Survived {
				ok = false
			}
			k++
		}
		perDraw[i] = total
		sumDowntime = addSat(sumDowntime, total)
		if ok {
			survived++
		}
	}

	n := int64(p.Draws)
	pr.ExpectedDowntime = time.Duration(int64(sumDowntime) / n)
	pr.Availability = units.Clamp01(1 - float64(pr.ExpectedDowntime)/float64(outage.Year))
	pr.SurvivalRate = float64(survived) / float64(n)
	pr.EnergyShortfallWh = units.WattHours(sumShortfall / float64(n))
	switch {
	case pr.Events == 0:
		pr.Perf = 1
	case pr.Events == 1:
		// A single event's weighted mean is exactly its Perf; skip the
		// (p*w)/w round trip so the degenerate single-draw process
		// reproduces the scalar result bit for bit.
		pr.Perf = results[0].Perf
	default:
		pr.Perf = weightedPerf / sumPerfWeight
	}
	if len(results) > 0 {
		pr.Cost = results[0].Cost
	} else {
		pr.Cost = b.NormalizedCost(peak)
	}

	sort.Slice(perDraw, func(i, j int) bool { return perDraw[i] < perDraw[j] })
	pr.DowntimeP50 = nearestRank(perDraw, 50)
	pr.DowntimeP95 = nearestRank(perDraw, 95)
	pr.DowntimeP99 = nearestRank(perDraw, 99)
	pr.DowntimeMax = perDraw[len(perDraw)-1]
	return pr, nil
}

// nearestRank returns the nearest-rank p-th percentile of sorted (the
// loadgen convention): the ceil(p/100*n)-th smallest value.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// addSat adds two non-negative durations, saturating at the maximum
// representable duration instead of wrapping (a 1024-draw process of
// 1024 maximal events sums past int64 nanoseconds).
func addSat(a, b time.Duration) time.Duration {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
