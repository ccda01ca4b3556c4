// Package availability closes the paper's loop: Figure 1 says how often
// and how long utility power fails, Figures 5-9 say what each backup
// configuration and technique delivers during one outage, and Figure 10
// prices unavailability. This package composes all three into a yearly
// Monte-Carlo: sample outage traces, handle each outage with the best
// technique the configuration supports, and report availability (nines),
// downtime, degraded service, and the revenue consequence — per
// configuration, so an operator can read off whether dropping the DG pays
// for their workload.
package availability

import (
	"context"
	"fmt"
	"math"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/loadprofile"
	"backuppower/internal/outage"
	"backuppower/internal/sweep"
	"backuppower/internal/tco"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// Planner runs yearly simulations for one configuration and workload.
type Planner struct {
	Framework *core.Framework
	Workload  workload.Spec
	Backup    cost.Backup

	// Technique pins the outage response; nil selects the best technique
	// per outage (the Figure 5 rule), which assumes the operator adapts.
	Technique technique.Technique

	// Load scales the workload's utilization by when each outage lands
	// (diurnal/weekly patterns). Nil means the paper's steady near-peak
	// assumption.
	Load loadprofile.Profile
}

// YearStats summarizes one simulated year.
type YearStats struct {
	Outages     int
	OutageTime  time.Duration
	Downtime    time.Duration
	Degraded    time.Duration // time served below full performance
	ServiceLoss time.Duration // downtime + (1-perf)-weighted degraded time
	StateLosses int           // outages that crashed the fleet
}

// Summary aggregates the Monte-Carlo.
type Summary struct {
	Config   string
	Years    int
	NormCost float64

	MeanOutagesPerYear  float64
	MeanOutageTime      time.Duration
	MeanDowntime        time.Duration
	MaxDowntime         time.Duration
	MeanServiceLoss     time.Duration
	MeanStateLossesYear float64

	// Availability is 1 - meanDowntime/year; Nines its -log10 complement.
	Availability float64
	Nines        float64

	// RevenueLossPerKWYear prices the mean service loss with the Figure 10
	// rates; DGSavingsPerKWYear is the line it must stay under for a
	// DG-less configuration to pay off.
	RevenueLossPerKWYear float64
	DGSavingsPerKWYear   float64
}

// Validate checks the planner.
func (p *Planner) Validate() error {
	if p.Framework == nil {
		return fmt.Errorf("availability: nil framework")
	}
	if err := p.Workload.Validate(); err != nil {
		return err
	}
	return p.Backup.Validate()
}

// SimulateYears runs the Monte-Carlo over the given number of years with a
// deterministic seed.
func (p *Planner) SimulateYears(years int, seed int64) (Summary, []YearStats, error) {
	return p.SimulateYearsCtx(context.Background(), years, seed)
}

// SimulateYearsCtx fans the simulated years out through the sweep engine.
// Every year gets its own outage generator seeded with
// outage.DeriveSeed(seed, year), so each year's trace depends only on
// (seed, year) — never on how many workers ran or in what order — and a
// parallel run reproduces the serial one exactly.
func (p *Planner) SimulateYearsCtx(ctx context.Context, years int, seed int64) (Summary, []YearStats, error) {
	if err := p.Validate(); err != nil {
		return Summary{}, nil, err
	}
	if years < 1 {
		return Summary{}, nil, fmt.Errorf("availability: %d years", years)
	}

	var sum Summary
	sum.Config = p.Backup.Name
	sum.Years = years
	sum.NormCost = p.Backup.NormalizedCost(p.Framework.Env.PeakPower())

	yearIdx := make([]int, years)
	for y := range yearIdx {
		yearIdx[y] = y
	}
	stats, err := sweep.Map(ctx, yearIdx, func(ctx context.Context, y int) (YearStats, error) {
		gen := outage.NewGenerator(outage.DeriveSeed(seed, int64(y)))
		var ys YearStats
		for _, ev := range gen.Year() {
			res, err := p.handle(ctx, ev)
			if err != nil {
				return YearStats{}, err
			}
			ys.Outages++
			ys.OutageTime += ev.Duration
			ys.Downtime += res.Downtime
			degr := time.Duration(0)
			if res.Perf < 1 {
				degr = time.Duration(float64(ev.Duration) * (1 - res.Perf))
			}
			ys.Degraded += degr
			ys.ServiceLoss += res.Downtime + degr
			if !res.Survived {
				ys.StateLosses++
			}
		}
		return ys, nil
	})
	if err != nil {
		return Summary{}, nil, err
	}
	for _, ys := range stats {
		sum.MeanOutagesPerYear += float64(ys.Outages)
		sum.MeanOutageTime += ys.OutageTime
		sum.MeanDowntime += ys.Downtime
		sum.MeanServiceLoss += ys.ServiceLoss
		sum.MeanStateLossesYear += float64(ys.StateLosses)
		if ys.Downtime > sum.MaxDowntime {
			sum.MaxDowntime = ys.Downtime
		}
	}
	n := float64(years)
	sum.MeanOutagesPerYear /= n
	sum.MeanOutageTime = time.Duration(float64(sum.MeanOutageTime) / n)
	sum.MeanDowntime = time.Duration(float64(sum.MeanDowntime) / n)
	sum.MeanServiceLoss = time.Duration(float64(sum.MeanServiceLoss) / n)
	sum.MeanStateLossesYear /= n

	const year = 365 * 24 * time.Hour
	sum.Availability = 1 - float64(sum.MeanDowntime)/float64(year)
	sum.Nines = nines(sum.Availability)

	if a, err := tco.NewAnalysis(tco.DefaultGoogle2011(), 83.3); err == nil {
		sum.RevenueLossPerKWYear = a.OutageCostPerKWYear(sum.MeanServiceLoss)
		sum.DGSavingsPerKWYear = a.DGSavingsPerKWYear
	}
	return sum, stats, nil
}

// handle evaluates one outage, at the utilization the load profile says
// the datacenter was running when it struck.
func (p *Planner) handle(ctx context.Context, ev outage.Event) (res coreResult, err error) {
	w := p.Workload
	if p.Load != nil {
		w.Utilization = loadprofile.Scale(p.Load, ev.Start, w.Utilization)
	}
	if p.Technique != nil {
		r, e := p.Framework.Evaluate(p.Backup, p.Technique, w, ev.Duration)
		return coreResult{r.Downtime, r.Perf, r.Survived}, e
	}
	r, _, e := p.Framework.BestForConfigCtx(ctx, p.Backup, w, ev.Duration)
	if e != nil {
		return coreResult{}, e
	}
	return coreResult{r.Downtime, r.Perf, r.Survived}, nil
}

// coreResult is the slice of cluster.Result the planner consumes.
type coreResult struct {
	Downtime time.Duration
	Perf     float64
	Survived bool
}

// nines converts availability to the conventional "number of nines"
// (-log10 of the unavailability), capped at 9 for a downtime-free horizon.
func nines(avail float64) float64 {
	if avail >= 1 {
		return 9
	}
	if avail <= 0 {
		return 0
	}
	n := -math.Log10(1 - avail)
	if n > 9 {
		n = 9
	}
	return n
}

// CompareConfigsCtx fans the per-configuration Monte-Carlos out through
// the sweep engine. All configurations share the same base seed, so they
// see identical outage traces (the paper's controlled comparison) and the
// summaries come back in input order.
func CompareConfigsCtx(ctx context.Context, fw *core.Framework, w workload.Spec, configs []cost.Backup, years int, seed int64) ([]Summary, error) {
	return sweep.Map(ctx, configs, func(ctx context.Context, b cost.Backup) (Summary, error) {
		p := &Planner{Framework: fw, Workload: w, Backup: b}
		s, _, err := p.SimulateYearsCtx(ctx, years, seed)
		return s, err
	})
}
