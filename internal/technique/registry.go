package technique

import (
	"time"

	"backuppower/internal/migration"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// OperationalPhases is one row of the paper's Table 4: what a technique
// does in each of the four operational phases.
type OperationalPhases struct {
	Technique     string
	Normal        string
	OutageStart   string
	DuringOutage  string
	AfterRestored string
}

// Table4 reproduces the paper's Table 4 verbatim.
func Table4() []OperationalPhases {
	return []OperationalPhases{
		{"MaxPerf", "Full service", "Full service", "Full service", "Full service"},
		{"MinCost", "Full service", "Server/App crash", "No service", "Server/App Restart"},
		{"Throttling", "Full service", "Throttled Perf.", "Throttled Perf.", "Restore full service"},
		{"Migration", "Full service", "Migrate to remote memory", "Consolidated service", "Migrate back"},
		{"Proactive Migration", "Periodic dirty-state flush to remote memory", "Migrate remaining dirty state to remote memory", "Consolidated service", "Migrate back to full service"},
		{"Sleep", "Full service", "Suspend to local memory", "No service", "Resume from memory"},
		{"Hibernation", "Full service", "Persist to local storage", "No service", "Resume from disk"},
		{"Proactive Hibernation", "Periodic dirty-state flush to local storage", "Persist remaining dirty state to local storage", "No service", "Resume from disk"},
	}
}

// Impact is one row of the paper's Table 5: how fast a technique takes
// effect and what the power draw is after activation.
type Impact struct {
	Technique    string
	TimeToEffect time.Duration
	// PowerAfter is the per-server draw once the technique is active (for
	// "throttled/consolidated state" rows, the computed model value).
	PowerAfter  units.Watts
	Description string
}

// Table5 computes the Table 5 rows from the models for the given
// environment and workload.
func Table5(env Env, w workload.Spec) []Impact {
	deepest := env.Server.DeepestPState()
	throttled := env.Server.ActivePower(w.Utilization, deepest, 1)
	live := migration.Live(env.Mig, w, 1)
	pro := migration.Proactive(env.Mig, w, 1)
	// Consolidated per-original-server power: survivors run hot, sources
	// are off — on average half a hot server per original server.
	consol := env.Server.ActivePower(units.Clamp01(w.Utilization*2), env.Server.PStates[0], 1) / 2
	return []Impact{
		{"Throttling", env.Server.ThrottleLatency, throttled, "throttled state"},
		{"Migration", live.Duration, consol, "consolidated state"},
		{"Proactive Migration", pro.Duration, consol, "consolidated state"},
		{"Sleep", env.Server.TransitionToSleep, env.Server.SleepPower(), "2-4W per DIMM"},
		{"Hibernation", Hibernate{}.SaveTime(env, w), 0, "0 Watts"},
		{"Proactive Hibernation", Hibernate{Proactive: true}.SaveTime(env, w), 0, "0 Watts"},
	}
}

// HybridRow is one row of the paper's Table 6.
type HybridRow struct {
	Technique string
	During    string
}

// Table6 reproduces the paper's Table 6.
func Table6() []HybridRow {
	return []HybridRow{
		{"Sleep-L", "Throttle while going to sleep"},
		{"Hibernate-L", "Throttle while going to hibernate"},
		{"Throttle+Sleep-L", "Throttle + throttle while going to sleep"},
		{"Throttle+Hibernate", "Throttle + throttle while going to hibernate"},
		{"Migration+Sleep-L", "Migrate + throttle while going to sleep"},
	}
}

// SaveResume is one row of the paper's Table 8: measured save/resume times
// and normalized save power for SPECjbb under the save-state techniques.
type SaveResume struct {
	Technique string
	SaveTime  time.Duration
	Resume    time.Duration
	PeakNorm  float64 // save power normalized to server peak
}

// Table8 computes the Table 8 rows from the models.
func Table8(env Env, w workload.Spec) []SaveResume {
	peak := float64(env.Server.PeakW) * float64(env.Servers)
	norm := func(p Plan) float64 { return float64(p.Phases[0].Power) / peak }

	sleep := Sleep{}.Plan(env, w, time.Hour)
	sleepL := Sleep{LowPower: true}.Plan(env, w, time.Hour)
	hib := Hibernate{}
	hibL := Hibernate{LowPower: true}
	proHib := Hibernate{Proactive: true}

	return []SaveResume{
		{"Sleep", sleep.Phases[0].Dur, env.Server.ResumeFromSleep, norm(sleep)},
		{"Hibernate", hib.SaveTime(env, w), hib.ResumeTime(env, w), norm(hib.Plan(env, w, time.Hour))},
		{"Proactive Hibernate", proHib.SaveTime(env, w), proHib.ResumeTime(env, w), norm(proHib.Plan(env, w, time.Hour))},
		{"Sleep-L", sleepL.Phases[0].Dur, env.Server.ResumeFromSleep, norm(sleepL)},
		{"Hibernate-L", hibL.SaveTime(env, w), hibL.ResumeTime(env, w), norm(hibL.Plan(env, w, time.Hour))},
	}
}
