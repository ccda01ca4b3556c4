// Package server models the compute nodes of the datacenter: their power
// draw as a function of utilization and active power state (DVFS P-states
// and clock-throttling T-states), and the S3 sleep draw the save-state
// techniques rely on (DRAM in self-refresh).
//
// The model is calibrated to the paper's testbed (Section 6): dual-socket
// 12-core 3.4 GHz Xeons with 64 GB DRAM, idle ~80 W, measured peak ~250 W,
// 7 voltage/frequency P-states and 8 clock-throttling T-states, and S3
// sleep power of 2-4 W per DIMM (~5 W/server as used in Section 6.2).
package server

import (
	"fmt"
	"time"

	"backuppower/internal/units"
)

// PState is one DVFS operating point: a relative frequency and the dynamic
// power it costs relative to the top state. Dynamic power scales roughly
// with f*V^2 and V scales with f across the DVFS range, so the power factor
// is (freq)^3 softened by a static-leakage floor.
type PState struct {
	Index       int
	FreqRatio   float64 // 1.0 at P0
	DynPowerMul float64 // multiplier on (peak-idle) dynamic power
}

// Config is a server hardware description.
type Config struct {
	Name      string
	IdleW     units.Watts
	PeakW     units.Watts
	MemoryGB  int
	DIMMs     int
	SleepWPer units.Watts // per-DIMM self-refresh power in S3

	PStates []PState // sorted P0..Pn (descending frequency)
	TStates int      // number of clock-throttling duty-cycle states

	// TransitionToSleep and company are how long the state changes take
	// (Table 5: Sleep ~10 s to take effect; throttling tens of µs).
	ThrottleLatency   time.Duration
	TransitionToSleep time.Duration
	ResumeFromSleep   time.Duration
	RestartTime       time.Duration // cold boot: BIOS + OS + re-init (~2 min)
}

// DefaultConfig is the paper's testbed server.
func DefaultConfig() Config {
	return Config{
		Name:              "xeon-2s-12c",
		IdleW:             80,
		PeakW:             250,
		MemoryGB:          64,
		DIMMs:             8,
		SleepWPer:         0.65, // ~5 W/server in S3 (§6.2)
		PStates:           MakePStates(7, 0.40),
		TStates:           8,
		ThrottleLatency:   50 * time.Microsecond,
		TransitionToSleep: 6 * time.Second, // measured save time, Table 8
		ResumeFromSleep:   8 * time.Second,
		RestartTime:       2 * time.Minute, // §6.2 web-search: server restart ~2 min
	}
}

// MakePStates builds n DVFS states with frequency descending linearly from
// 1.0 to minFreq, and dynamic power following a leakage-softened cubic law.
func MakePStates(n int, minFreq float64) []PState {
	if n < 1 {
		n = 1
	}
	out := make([]PState, n)
	for i := range out {
		f := 1.0
		if n > 1 {
			f = 1.0 - (1.0-minFreq)*float64(i)/float64(n-1)
		}
		out[i] = PState{Index: i, FreqRatio: f, DynPowerMul: dynPower(f)}
	}
	return out
}

// dynPower maps a frequency ratio to a dynamic-power multiplier: a 30%
// frequency-independent floor (uncore, memory, leakage) plus a cubic DVFS
// term. dynPower(1) = 1.
func dynPower(f float64) float64 {
	const floor = 0.30
	return floor + (1-floor)*f*f*f
}

// Validate checks the hardware description.
func (c Config) Validate() error {
	switch {
	case c.IdleW <= 0 || c.PeakW <= c.IdleW:
		return fmt.Errorf("server: idle %v / peak %v implausible", c.IdleW, c.PeakW)
	case len(c.PStates) == 0:
		return fmt.Errorf("server: no P-states")
	case c.TStates < 1:
		return fmt.Errorf("server: no T-states")
	case c.DIMMs < 1:
		return fmt.Errorf("server: no DIMMs")
	}
	for i, p := range c.PStates {
		if p.FreqRatio <= 0 || p.FreqRatio > 1 {
			return fmt.Errorf("server: P%d freq %v out of (0,1]", i, p.FreqRatio)
		}
		if i > 0 && p.FreqRatio >= c.PStates[i-1].FreqRatio {
			return fmt.Errorf("server: P-states not descending at %d", i)
		}
	}
	return nil
}

// SleepPower is the whole-server S3 draw.
func (c Config) SleepPower() units.Watts {
	return c.SleepWPer * units.Watts(c.DIMMs)
}

// ActivePower returns the draw of an Active server at the given utilization
// in P-state p with a T-state duty cycle (1.0 = no clock throttling).
// Power = idle + dynamic(peak-idle) * util * pstateMul * duty.
func (c Config) ActivePower(util float64, p PState, duty float64) units.Watts {
	util = units.Clamp01(util)
	duty = units.Clamp01(duty)
	dyn := float64(c.PeakW-c.IdleW) * util * p.DynPowerMul * duty
	return c.IdleW + units.Watts(dyn)
}

// DeepestPState returns the lowest-frequency P-state.
func (c Config) DeepestPState() PState { return c.PStates[len(c.PStates)-1] }

// TStateDuty returns the duty cycle of T-state index i in [0,TStates-1]:
// T0 = 1.0 down to 1/TStates.
func (c Config) TStateDuty(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= c.TStates {
		i = c.TStates - 1
	}
	return float64(c.TStates-i) / float64(c.TStates)
}
