// Package capping implements server power capping: selecting the active
// power state (DVFS P-state plus clock-throttling T-state) that maximizes
// performance under a power budget, and a feedback governor that tracks a
// budget against noisy measurements (the RAPL-style mechanism the paper's
// introduction assumes: "power capping mechanisms are then employed to
// ensure safety when this limit is reached").
//
// The underprovisioning connection: a half-power UPS is exactly a power
// budget, and the best response to it is whatever (P,T) pair this package
// picks — which is how the framework decides what service level a capped
// configuration can offer.
package capping

import (
	"fmt"
	"sort"

	"backuppower/internal/server"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// Setting is one operating point of the capping space.
type Setting struct {
	PState int
	TState int
	Power  units.Watts // per-server draw at the workload's utilization
	Speed  float64     // effective clock speed (freq × duty)
}

// String formats the setting.
func (s Setting) String() string {
	if s.TState > 0 {
		return fmt.Sprintf("P%d/T%d", s.PState, s.TState)
	}
	return fmt.Sprintf("P%d", s.PState)
}

// Space enumerates every (P,T) pair for a server and utilization, sorted by
// descending speed (and descending power within equal speed).
func Space(cfg server.Config, util float64) []Setting {
	var out []Setting
	for pi, p := range cfg.PStates {
		for ti := 0; ti < cfg.TStates; ti++ {
			duty := cfg.TStateDuty(ti)
			out = append(out, Setting{
				PState: pi,
				TState: ti,
				Power:  cfg.ActivePower(util, p, duty),
				Speed:  p.FreqRatio * duty,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Speed != out[j].Speed {
			return out[i].Speed > out[j].Speed
		}
		// Cheapest first within a speed tie (P/T combinations can land on
		// identical effective speeds with different power).
		return out[i].Power < out[j].Power
	})
	return out
}

// Frontier returns the Pareto-optimal settings (no other setting is at
// least as fast for less power), sorted by strictly descending speed and
// power.
func Frontier(cfg server.Config, util float64) []Setting {
	space := Space(cfg, util)
	var out []Setting
	best := units.Watts(1 << 62)
	lastSpeed := -1.0
	for _, s := range space {
		if s.Speed == lastSpeed {
			continue // the cheaper same-speed entry already won
		}
		lastSpeed = s.Speed
		if s.Power < best {
			out = append(out, s)
			best = s.Power
		}
	}
	return out
}

// Best returns the highest-speed setting whose per-server power fits the
// budget. ok is false when even the deepest setting exceeds it (the budget
// is below the throttling floor — idle power plus residual dynamic power —
// and only save-state techniques can help).
func Best(cfg server.Config, util float64, budget units.Watts) (Setting, bool) {
	var best Setting
	found := false
	for _, s := range Frontier(cfg, util) {
		if s.Power <= budget {
			// Frontier is sorted by descending speed: first fit wins.
			return s, true
		}
		best = s
	}
	_ = best
	return Setting{}, found
}

// PerfUnderBudget returns the workload throughput achievable per server
// under the budget, and the setting that achieves it.
func PerfUnderBudget(cfg server.Config, w workload.Spec, budget units.Watts) (float64, Setting, bool) {
	s, ok := Best(cfg, w.Utilization, budget)
	if !ok {
		return 0, Setting{}, false
	}
	return w.PerfAtSpeed(s.Speed), s, true
}
