// Package backuppower is a library for studying underprovisioned datacenter
// backup power infrastructure, reproducing Wang et al., "Underprovisioning
// Backup Power Infrastructure for Datacenters" (ASPLOS 2014).
//
// It models the two backup components — Diesel Generators (cap-ex linear in
// power) and UPS units (cap-ex in both power and battery energy, with
// Peukert-law nonlinear runtime) — the system techniques that let
// applications ride out outages within a reduced capacity (throttling,
// migration/consolidation, sleep, hibernation, proactive variants and
// hybrids), and four calibrated datacenter workloads. On top it provides:
//
//   - a cost model with the paper's named configurations (MaxPerf, NoDG,
//     LargeEUPS, ...),
//   - a scenario simulator producing cost / performance / down time,
//   - a minimum-cost capacity sizer per technique and outage duration,
//   - outage statistics and an online Markov duration predictor with an
//     adaptive escalation policy,
//   - a TCO cross-over analysis for dropping DGs entirely.
//
// Quick start:
//
//	fw := backuppower.NewFramework(64)
//	res, err := fw.Evaluate(
//	    backuppower.LargeEUPS(fw.Env.PeakPower()),
//	    backuppower.Throttling{PState: 6},
//	    backuppower.Specjbb(),
//	    30*time.Minute)
package backuppower

import (
	"time"

	"backuppower/internal/availability"
	"backuppower/internal/battery"
	"backuppower/internal/cluster"
	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/loadprofile"
	"backuppower/internal/outage"
	"backuppower/internal/portfolio"
	"backuppower/internal/tco"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/ups"
	"backuppower/internal/workload"
)

// Quantity aliases, so callers never import internal packages.
type (
	// Watts is electrical power.
	Watts = units.Watts
	// WattHours is electrical energy.
	WattHours = units.WattHours
	// DollarsPerYear is amortized annual cost.
	DollarsPerYear = units.DollarsPerYear
)

// Power scales.
const (
	Watt     = units.Watt
	Kilowatt = units.Kilowatt
	Megawatt = units.Megawatt
)

// Core model aliases.
type (
	// Backup is a provisioned backup infrastructure (DG + UPS).
	Backup = cost.Backup
	// Workload is a calibrated application model.
	Workload = workload.Spec
	// Technique plans a datacenter's response to an outage.
	Technique = technique.Technique
	// Env describes the datacenter behind the backup.
	Env = technique.Env
	// Result is a simulated scenario outcome.
	Result = cluster.Result
	// Framework evaluates scenarios and sizes backup capacity.
	Framework = core.Framework
	// OperatingPoint pairs a technique with its min-cost backup.
	OperatingPoint = core.OperatingPoint
	// TechniqueSummary is a technique family's cost/perf/downtime band.
	TechniqueSummary = core.TechniqueSummary
	// UPSConfig describes the UPS fleet.
	UPSConfig = ups.Config
	// AdaptivePolicy escalates techniques during an outage of unknown
	// duration (Section 7).
	AdaptivePolicy = core.AdaptivePolicy
	// OutagePredictor is the Markov-chain duration predictor.
	OutagePredictor = outage.Predictor
	// OutageDistribution is a bucketed duration distribution.
	OutageDistribution = outage.Distribution
	// OutageGenerator samples reproducible yearly outage traces.
	OutageGenerator = outage.Generator
	// TCOAnalysis is the Figure 10 revenue-vs-savings model.
	TCOAnalysis = tco.Analysis
	// BatteryPack is a provisioned battery (power rating + rated runtime).
	BatteryPack = battery.Pack
	// BatteryState tracks a pack's depletion under a varying load.
	BatteryState = battery.State
	// BatteryTechnology is a chemistry (lead-acid, Li-ion).
	BatteryTechnology = battery.Technology
	// AvailabilityPlanner runs yearly outage Monte-Carlos.
	AvailabilityPlanner = availability.Planner
	// AvailabilitySummary is the planner's aggregate result.
	AvailabilitySummary = availability.Summary
	// PortfolioPlanner designs heterogeneous per-application backups (§7).
	PortfolioPlanner = portfolio.Planner
	// PortfolioRequirement is one application + SLA the portfolio hosts.
	PortfolioRequirement = portfolio.Requirement
	// PortfolioSLA is the per-application performability requirement.
	PortfolioSLA = portfolio.SLA
	// PortfolioPlan is the resulting sectioned design.
	PortfolioPlan = portfolio.Plan
	// LoadProfile scales utilization by time of day/week.
	LoadProfile = loadprofile.Profile
	// DiurnalLoad is the daily/weekly utilization wave.
	DiurnalLoad = loadprofile.Diurnal
)

// NewPortfolioPlanner wraps a framework for heterogeneous design.
var NewPortfolioPlanner = portfolio.NewPlanner

// TypicalDiurnal is a representative interactive-service load profile.
var TypicalDiurnal = loadprofile.Typical

// CheckpointedSpecCPU is the HPC workload with periodic checkpointing.
var CheckpointedSpecCPU = workload.CheckpointedSpecCPU

// Battery chemistries.
var (
	LeadAcid = battery.LeadAcid
	LiIon    = battery.LiIon
)

// CompareAvailability runs the yearly Monte-Carlo across configurations
// with a shared trace seed, stopping early if ctx is cancelled.
var CompareAvailability = availability.CompareConfigsCtx

// Technique constructors (see Tables 4-6 of the paper).
type (
	// Baseline keeps full service (MaxPerf behavior).
	Baseline = technique.Baseline
	// Throttling runs in a reduced DVFS P-state (optionally T-state).
	Throttling = technique.Throttling
	// Migration consolidates onto fewer servers via live migration.
	Migration = technique.Migration
	// Sleep suspends to RAM (S3).
	Sleep = technique.Sleep
	// Hibernate suspends to disk (S4).
	Hibernate = technique.Hibernate
	// ThrottleThenSave serves throttled then saves state (hybrids).
	ThrottleThenSave = technique.ThrottleThenSave
	// MigrationThenSleep consolidates then sleeps the survivors.
	MigrationThenSleep = technique.MigrationThenSleep
	// NVDIMM persists state with no backup power at all (§7).
	NVDIMM = technique.NVDIMM
	// NVDIMMThrottle serves throttled with crash-safe state (§7).
	NVDIMMThrottle = technique.NVDIMMThrottle
	// BarelyAlive sleeps while serving reads over RDMA (§7).
	BarelyAlive = technique.BarelyAlive
	// GeoFailover redirects load to a geo-replicated site (§7).
	GeoFailover = technique.GeoFailover
)

// Save kinds for ThrottleThenSave.
const (
	SaveSleep     = technique.SaveSleep
	SaveHibernate = technique.SaveHibernate
)

// NewFramework returns an evaluation framework over the paper's testbed
// server model scaled to n servers.
func NewFramework(n int) *Framework { return core.New(n) }

// Input validation at the evaluation boundary: Evaluate and the sizing /
// selection entry points reject non-positive or absurd outage durations
// and invalid server counts with an *InputError wrapping ErrInvalidInput,
// instead of simulating nonsense or failing with an untyped error deep in
// the scenario validator.
var ErrInvalidInput = core.ErrInvalidInput

// InputError is the typed rejection; Field names the offending input.
type InputError = core.InputError

// MaxOutage is the longest outage duration the framework evaluates.
const MaxOutage = core.MaxOutage

// Workload constructors (Table 7).
var (
	Specjbb   = workload.Specjbb
	WebSearch = workload.WebSearch
	Memcached = workload.Memcached
	SpecCPU   = workload.SpecCPU
	Workloads = workload.All
)

// Backup configuration constructors (Table 3).
var (
	MaxPerf          = cost.MaxPerf
	MinCost          = cost.MinCost
	NoDG             = cost.NoDG
	NoUPS            = cost.NoUPS
	DGSmallPUPS      = cost.DGSmallPUPS
	SmallDGSmallPUPS = cost.SmallDGSmallPUPS
	SmallPUPS        = cost.SmallPUPS
	LargeEUPS        = cost.LargeEUPS
	SmallPLargeEUPS  = cost.SmallPLargeEUPS
	Table3           = cost.Table3
	CustomBackup     = cost.Custom
)

// Outage statistics (Figure 1) and prediction (Section 7).
var (
	OutageDurations   = outage.DurationDistribution
	NewOutageGen      = outage.NewGenerator
	NewPredictor      = outage.NewPredictor
	NewAdaptivePolicy = core.NewAdaptivePolicy
)

// NewUPS builds a rack-level lead-acid UPS configuration.
func NewUPS(power Watts, runtime time.Duration) UPSConfig {
	return ups.NewConfig(power, runtime)
}

// NewTCO builds the Figure 10 analysis from the paper's Google 2011 inputs.
func NewTCO() (TCOAnalysis, error) {
	return tco.NewAnalysis(tco.DefaultGoogle2011(), 83.3)
}
