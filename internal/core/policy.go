package core

import (
	"fmt"
	"time"

	"backuppower/internal/outage"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/ups"
	"backuppower/internal/workload"
)

// Mode is one rung of the adaptive policy's escalation ladder, ordered from
// best service to best energy preservation.
type Mode int

// Escalation ladder.
const (
	ModeFullService Mode = iota
	ModeThrottled
	ModeConsolidated
	ModeSleep
	ModeHibernate
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeFullService:
		return "full-service"
	case ModeThrottled:
		return "throttled"
	case ModeConsolidated:
		return "consolidated"
	case ModeSleep:
		return "sleep"
	case ModeHibernate:
		return "hibernate"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Decision is the policy's output at a decision instant.
type Decision struct {
	Mode      Mode
	Reason    string
	Sustain   time.Duration // how long the battery holds in this mode
	Remaining time.Duration // predicted remaining outage
}

// AdaptivePolicy is the Section 7 answer to "how do we deal with unknown
// outage duration": start optimistic (the majority of outages end within
// minutes), watch the battery against the Markov predictor's expected
// remaining duration, and escalate down the ladder before energy runs out —
// reserving enough charge to save state at the very end.
type AdaptivePolicy struct {
	Env       technique.Env
	Workload  workload.Spec
	UPS       ups.Config
	Predictor *outage.Predictor

	// SafetyFactor inflates the predicted remaining duration when
	// comparing against sustainable time (default 1.25).
	SafetyFactor float64

	// PredictQuantile selects how pessimistic the remaining-duration
	// estimate is (default 0.5, the conditional median). The heavy-tailed
	// mean would put the fleet to sleep the moment an outage starts; the
	// median lets it serve through the short outages that dominate
	// Figure 1 and escalate as the outage outlives its cohort.
	PredictQuantile float64

	// current mode; never de-escalates during a single outage.
	mode Mode
}

// NewAdaptivePolicy builds a policy with the historical outage prior.
func NewAdaptivePolicy(env technique.Env, w workload.Spec, u ups.Config) (*AdaptivePolicy, error) {
	pred, err := outage.NewPredictor(outage.DurationDistribution(), 100)
	if err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &AdaptivePolicy{
		Env: env, Workload: w, UPS: u, Predictor: pred,
		SafetyFactor: 1.25, PredictQuantile: 0.5,
	}, nil
}

// ModePower returns the aggregate draw in each mode.
func (p *AdaptivePolicy) ModePower(m Mode) units.Watts {
	env, w := p.Env, p.Workload
	n := units.Watts(env.Servers)
	switch m {
	case ModeFullService:
		return env.NormalPower(w)
	case ModeThrottled:
		return env.Server.ActivePower(w.Utilization, env.Server.DeepestPState(), 1) * n
	case ModeConsolidated:
		survivors := (env.Servers + 1) / 2
		return env.Server.ActivePower(1, env.Server.PStates[0], 1) * units.Watts(survivors)
	case ModeSleep:
		return env.Server.SleepPower() * n
	default: // hibernated
		return 0
	}
}

// ModePerf returns normalized service level in each mode.
func (p *AdaptivePolicy) ModePerf(m Mode) float64 {
	w := p.Workload
	switch m {
	case ModeFullService:
		return 1
	case ModeThrottled:
		return w.PerfAtSpeed(p.Env.Server.DeepestPState().FreqRatio)
	case ModeConsolidated:
		return w.ConsolidatedPerf(2)
	default:
		return 0
	}
}

// saveReserve is the battery time that must remain available to execute a
// final state-save (sleep transition at low power) from the current mode.
func (p *AdaptivePolicy) saveReserve(remaining float64) time.Duration {
	// Sleep-L transition plus margin.
	return 2*p.Env.Server.TransitionToSleep + 10*time.Second
}

// Decide returns the mode to run in, given the elapsed outage time and the
// battery's remaining fraction. The policy escalates (never relaxes) and
// always keeps enough charge to reach a state-preserving mode.
func (p *AdaptivePolicy) Decide(elapsed time.Duration, batteryRemaining float64) Decision {
	remaining := p.Predictor.RemainingQuantile(elapsed, p.PredictQuantile)
	need := time.Duration(float64(remaining) * p.SafetyFactor)
	pack := p.UPS.Pack()

	for m := p.mode; m <= ModeHibernate; m++ {
		load := p.ModePower(m)
		var sustain time.Duration
		if load <= 0 {
			sustain = time.Duration(1<<62 - 1)
		} else if !p.UPS.CanCarry(load) {
			continue // mode draws more than the UPS can source
		} else {
			full := pack.RuntimeAt(load)
			sustain = time.Duration(float64(full) * batteryRemaining)
		}
		// Keep a reserve to save state from active modes.
		budget := need
		if m < ModeSleep {
			budget += p.saveReserve(batteryRemaining)
		}
		if sustain >= budget || m == ModeHibernate {
			p.mode = m
			return Decision{
				Mode:      m,
				Sustain:   sustain,
				Remaining: remaining,
				Reason: fmt.Sprintf("%s sustains %v vs predicted remaining %v",
					m, sustain.Round(time.Second), remaining.Round(time.Second)),
			}
		}
	}
	p.mode = ModeHibernate
	return Decision{Mode: ModeHibernate, Remaining: remaining, Reason: "fallback"}
}

// Reset prepares the policy for a new outage and lets the predictor learn
// from the one that just completed.
func (p *AdaptivePolicy) Reset(completed time.Duration) {
	if completed > 0 {
		p.Predictor.Observe(completed)
	}
	p.mode = ModeFullService
}
