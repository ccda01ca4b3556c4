// Package memsim models the volatile memory state of an application: how
// much there is, how much of it is read-only (recoverable from persistent
// storage) versus modified (lost on a crash), and how fast pages are
// dirtied during execution. These dynamics drive everything the paper's
// save-state and migration techniques care about: hibernate time, live
// migration convergence, and the residual dirty state that the proactive
// (Remus-style) variants must move after a power failure.
package memsim

import (
	"fmt"
	"math"
	"time"

	"backuppower/internal/sweep"
	"backuppower/internal/units"
)

// Profile describes an application's memory-state behaviour.
type Profile struct {
	// Footprint is the total resident volatile state.
	Footprint units.Bytes

	// ReadOnlyFraction is the share of the footprint that is clean and
	// re-loadable from persistent storage (e.g. web-search's index cache).
	// Only the remainder needs to be saved or migrated to preserve state.
	ReadOnlyFraction float64

	// DirtyRate is how fast the application modifies (re-dirties) pages
	// during normal execution. It governs live-migration convergence and
	// the steady-state residue of proactive flushing.
	DirtyRate units.BytesPerSecond

	// WorkingSet bounds the set of pages the application keeps re-dirtying
	// (the hot set). Dirtying saturates at this size: once the whole hot
	// set is dirty, the dirty volume stops growing.
	WorkingSet units.Bytes
}

// Validate checks the profile.
func (p Profile) Validate() error {
	switch {
	case p.Footprint <= 0:
		return fmt.Errorf("memsim: non-positive footprint %v", p.Footprint)
	case p.ReadOnlyFraction < 0 || p.ReadOnlyFraction > 1:
		return fmt.Errorf("memsim: read-only fraction %v out of [0,1]", p.ReadOnlyFraction)
	case p.DirtyRate < 0:
		return fmt.Errorf("memsim: negative dirty rate")
	case p.WorkingSet < 0 || p.WorkingSet > p.Footprint:
		return fmt.Errorf("memsim: working set %v out of [0, footprint]", p.WorkingSet)
	}
	return nil
}

// DirtyAfter returns how much state is dirty after running for d starting
// from a fully-flushed (clean) image, with saturation at the working set:
// dirty(t) = WS * (1 - exp(-rate*t/WS)). For WS=0 it returns 0.
func (p Profile) DirtyAfter(d time.Duration) units.Bytes {
	ws := float64(p.WorkingSet)
	if ws <= 0 || p.DirtyRate <= 0 || d <= 0 {
		return 0
	}
	x := float64(p.DirtyRate) * d.Seconds() / ws
	return units.Bytes(ws * (1 - math.Exp(-x)))
}

// FlushResidue returns the steady-state amount of dirty data left
// unflushed when the state is flushed to a remote/disk sink every interval
// — the amount a Remus-style proactive technique still has to move after a
// power failure. It is simply the dirtying accumulated over one interval.
func (p Profile) FlushResidue(interval time.Duration) units.Bytes {
	return p.DirtyAfter(interval)
}

// FlushBandwidth returns the average background bandwidth consumed by
// proactive flushing at the given interval: residue moved once per
// interval.
func (p Profile) FlushBandwidth(interval time.Duration) units.BytesPerSecond {
	if interval <= 0 {
		return 0
	}
	return units.BytesPerSecond(float64(p.FlushResidue(interval)) / interval.Seconds())
}

// PrecopyResult describes an iterative pre-copy run (Xen-style live
// migration, §5): rounds of copying while the application keeps dirtying,
// until the remainder fits the stop-and-copy threshold or rounds are
// exhausted.
type PrecopyResult struct {
	Rounds        int
	Transferred   units.Bytes   // total bytes moved including re-copies
	FinalDirty    units.Bytes   // moved during stop-and-copy (downtime)
	Duration      time.Duration // wall time of the pre-copy phase
	StopCopyTime  time.Duration // downtime to move FinalDirty
	Converged     bool          // remainder fit the threshold
	TotalDuration time.Duration // Duration + StopCopyTime
}

// precopyKey is the full argument tuple of Precopy — all value types, so
// the simulation is a pure function of the key.
type precopyKey struct {
	p         Profile
	state     units.Bytes
	bw        units.BytesPerSecond
	threshold units.Bytes
	maxRounds int
}

// precopyMemo caches pre-copy runs process-wide. Migration planning is
// outage-duration-independent, so sweeps re-run identical pre-copies for
// every outage point on a grid; the memo collapses them to one iterative
// simulation per distinct (profile, state, bandwidth) tuple.
var precopyMemo = sweep.NewCache[precopyKey, PrecopyResult](1 << 12)

// ResetPrecopyMemo empties the pre-copy memo. Cold-path benchmarks use it
// alongside the scenario cache reset; regular callers never need it.
func ResetPrecopyMemo() { precopyMemo.Purge() }

// Precopy simulates iterative pre-copy of `state` bytes at the given link
// bandwidth while the profile keeps dirtying pages. threshold is the
// stop-and-copy cutoff; maxRounds caps iterations (Xen defaults to ~30).
// Results are memoized: the run is a pure function of its arguments.
func Precopy(p Profile, state units.Bytes, bw units.BytesPerSecond, threshold units.Bytes, maxRounds int) PrecopyResult {
	res, _ := precopyMemo.Do(precopyKey{p, state, bw, threshold, maxRounds}, func() (PrecopyResult, error) {
		return precopy(p, state, bw, threshold, maxRounds), nil
	})
	return res
}

func precopy(p Profile, state units.Bytes, bw units.BytesPerSecond, threshold units.Bytes, maxRounds int) PrecopyResult {
	var res PrecopyResult
	if state <= 0 {
		res.Converged = true
		return res
	}
	if bw <= 0 {
		return res // cannot transfer at all
	}
	remaining := state
	for res.Rounds = 0; res.Rounds < maxRounds; res.Rounds++ {
		if remaining <= threshold {
			res.Converged = true
			break
		}
		t := bw.TimeFor(remaining)
		res.Transferred += remaining
		res.Duration += t
		// While this round copied, the app dirtied pages (capped at the
		// hot working set and at the state being migrated).
		dirtied := p.DirtyAfter(t)
		if dirtied > state {
			dirtied = state
		}
		// No progress guard: if the app dirties as fast as we copy, stop.
		if dirtied >= remaining && res.Rounds > 0 {
			remaining = dirtied
			break
		}
		remaining = dirtied
	}
	if remaining <= threshold {
		res.Converged = true
	}
	res.FinalDirty = remaining
	res.StopCopyTime = bw.TimeFor(remaining)
	res.Transferred += remaining
	res.TotalDuration = res.Duration + res.StopCopyTime
	return res
}
