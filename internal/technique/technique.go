// Package technique implements the outage-handling system techniques of
// Section 5 (Tables 4-6): the sustain-execution family (Throttling,
// Migration/Consolidation, Proactive Migration), the save-state family
// (Sleep, Hibernation, Proactive Hibernation), and the low-power hybrids
// (Sleep-L, Hibernate-L, Throttle+Sleep-L, Throttle+Hibernate,
// Migration+Sleep-L).
//
// A technique, given the datacenter environment, a workload, and an outage
// duration, produces a Plan: a sequence of phases describing the aggregate
// power demanded from the backup infrastructure, the application's
// performance and availability, and whether volatile state would survive an
// abrupt power cut in that phase. The cluster simulator executes plans
// against a provisioned backup configuration.
package technique

import (
	"fmt"
	"time"

	"backuppower/internal/migration"
	"backuppower/internal/server"
	"backuppower/internal/storage"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// Env is the datacenter environment a plan is computed for.
type Env struct {
	Servers int           // number of servers behind the backup
	Server  server.Config // per-server hardware model
	Disk    storage.Disk  // local disk for hibernate images
	Mig     migration.Config
}

// DefaultEnv returns the paper's testbed scaled to n servers.
func DefaultEnv(n int) Env {
	return Env{
		Servers: n,
		Server:  server.DefaultConfig(),
		Disk:    storage.DefaultLocal(),
		Mig:     migration.DefaultConfig(),
	}
}

// Validate checks the environment.
func (e Env) Validate() error {
	if e.Servers < 1 {
		return fmt.Errorf("technique: %d servers", e.Servers)
	}
	if err := e.Server.Validate(); err != nil {
		return err
	}
	if err := e.Disk.Validate(); err != nil {
		return err
	}
	return e.Mig.Validate()
}

// PeakPower is the datacenter's peak draw (what MaxPerf provisions for).
func (e Env) PeakPower() units.Watts {
	return e.Server.PeakW * units.Watts(e.Servers)
}

// NormalPower is the draw under the given workload during normal operation.
func (e Env) NormalPower(w workload.Spec) units.Watts {
	p := e.Server.ActivePower(w.Utilization, e.Server.PStates[0], 1)
	return p * units.Watts(e.Servers)
}

// Phase is one step of a plan. Phases execute in order from the start of
// the outage on the wall clock — a phase does not stop when utility power
// returns (a hibernate save runs to completion), it merely stops drawing
// from the backup infrastructure.
type Phase struct {
	Name string

	// Dur is the phase length. The final phase of a plan may instead be
	// open-ended (OpenEnded true, Dur ignored): it holds until the outage
	// ends.
	Dur       time.Duration
	OpenEnded bool

	// Power is the aggregate draw the datacenter places on the backup
	// infrastructure during the phase.
	Power units.Watts

	// Perf is normalized application throughput (0 = unavailable) and
	// Available whether the application responds at all.
	Perf      float64
	Available bool

	// StateSafe reports whether volatile application state survives an
	// abrupt power cut during this phase (already persisted or replicated
	// and the active copy expendable). Note Sleep is NOT safe: S3 keeps
	// state in self-refresh DRAM, which dies with the battery.
	StateSafe bool
}

// Plan is a technique's complete outage response.
type Plan struct {
	Technique string
	Phases    []Phase

	// RestoreDowntime is additional unavailability after both the outage
	// and all fixed phases have completed (resume from S3/disk, warm-up
	// charged as downtime, etc.).
	RestoreDowntime time.Duration

	// RestoreAfterPowerLossOnly marks plans whose restore cost applies
	// only if the servers actually went dark (NVDIMM-backed execution:
	// nothing to restore when the battery outlasted the outage).
	RestoreAfterPowerLossOnly bool

	// RestoreDegradedDur/Perf describe a degraded (but available) period
	// after restore, e.g. running consolidated while migrating back.
	RestoreDegradedDur  time.Duration
	RestoreDegradedPerf float64
}

// Validate sanity-checks a plan.
func (p Plan) Validate() error {
	if len(p.Phases) == 0 {
		return fmt.Errorf("technique %s: empty plan", p.Technique)
	}
	for i, ph := range p.Phases {
		if ph.OpenEnded && i != len(p.Phases)-1 {
			return fmt.Errorf("technique %s: phase %d open-ended but not last", p.Technique, i)
		}
		if !ph.OpenEnded && ph.Dur < 0 {
			return fmt.Errorf("technique %s: phase %d negative duration", p.Technique, i)
		}
		if ph.Power < 0 {
			return fmt.Errorf("technique %s: phase %d negative power", p.Technique, i)
		}
		if ph.Perf < 0 || ph.Perf > 1 {
			return fmt.Errorf("technique %s: phase %d perf %v out of [0,1]", p.Technique, i, ph.Perf)
		}
		if ph.Perf > 0 && !ph.Available {
			return fmt.Errorf("technique %s: phase %d has perf but unavailable", p.Technique, i)
		}
	}
	if !p.Phases[len(p.Phases)-1].OpenEnded {
		return fmt.Errorf("technique %s: last phase must be open-ended", p.Technique)
	}
	return nil
}

// PeakPower returns the highest phase power — the power capacity the
// backup must be able to source for the plan to be feasible.
func (p Plan) PeakPower() units.Watts {
	var peak units.Watts
	for _, ph := range p.Phases {
		if ph.Power > peak {
			peak = ph.Power
		}
	}
	return peak
}

// Technique generates plans.
type Technique interface {
	// Name is the display name used in the paper's figures.
	Name() string
	// Plan computes the outage response for the workload and duration.
	Plan(env Env, w workload.Spec, outage time.Duration) Plan
}

// CrashRecovery returns the downtime to recover an application whose
// volatile state was lost: server reboot, application restart, cold data
// reload, warm-up charged as downtime, and (for HPC) recomputation. The
// min/max spread comes from the recompute range.
func CrashRecovery(env Env, w workload.Spec) (min, max time.Duration) {
	base := env.Server.RestartTime +
		w.Recovery.AppRestart +
		env.Disk.ReadTime(w.Recovery.ColdReload, 1) +
		w.Recovery.Warmup
	return base + w.Recovery.RecomputeMin, base + w.Recovery.RecomputeMax
}

// throttledSpeed converts a P-state (+ optional T-state duty) into the
// effective clock speed seen by the Amdahl performance model.
func throttledSpeed(p server.PState, duty float64) float64 {
	return p.FreqRatio * units.Clamp01(duty)
}
