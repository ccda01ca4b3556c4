package memsim

import (
	"testing"
	"time"

	"backuppower/internal/units"
)

func jbbLike() Profile {
	return Profile{
		Footprint:        18 * units.Gibibyte,
		ReadOnlyFraction: 0.3,
		DirtyRate:        40 * units.MiBps,
		WorkingSet:       10 * units.Gibibyte,
	}
}

func TestValidate(t *testing.T) {
	if err := jbbLike().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := jbbLike()
	bad.Footprint = 0
	if bad.Validate() == nil {
		t.Error("zero footprint should fail")
	}
	bad = jbbLike()
	bad.ReadOnlyFraction = 1.5
	if bad.Validate() == nil {
		t.Error("fraction>1 should fail")
	}
	bad = jbbLike()
	bad.DirtyRate = -1
	if bad.Validate() == nil {
		t.Error("negative dirty rate should fail")
	}
	bad = jbbLike()
	bad.WorkingSet = bad.Footprint * 2
	if bad.Validate() == nil {
		t.Error("working set > footprint should fail")
	}
}

func TestDirtyAfterSaturates(t *testing.T) {
	p := jbbLike()
	short := p.DirtyAfter(time.Second)
	long := p.DirtyAfter(time.Hour)
	if short <= 0 {
		t.Error("dirtying after 1s should be positive")
	}
	if long > p.WorkingSet {
		t.Errorf("dirty %v exceeds working set %v", long, p.WorkingSet)
	}
	if float64(long) < 0.99*float64(p.WorkingSet) {
		t.Errorf("after an hour dirty %v should saturate near WS %v", long, p.WorkingSet)
	}
	// Early on, dirtying tracks the linear rate.
	approx := float64(p.DirtyRate) * 1.0
	if !units.AlmostEqual(float64(short), approx, 0.01) {
		t.Errorf("1s dirty = %v, want ~%v (linear regime)", short, units.Bytes(approx))
	}
	if got := p.DirtyAfter(0); got != 0 {
		t.Errorf("DirtyAfter(0) = %v", got)
	}
	z := p
	z.WorkingSet = 0
	if got := z.DirtyAfter(time.Minute); got != 0 {
		t.Errorf("zero WS dirty = %v", got)
	}
}

func TestDirtyAfterMonotone(t *testing.T) {
	p := jbbLike()
	prev := units.Bytes(-1)
	for d := time.Second; d < 20*time.Minute; d *= 2 {
		cur := p.DirtyAfter(d)
		if cur < prev {
			t.Fatalf("dirty not monotone at %v", d)
		}
		prev = cur
	}
}

func TestFlushResidueAndBandwidth(t *testing.T) {
	p := jbbLike()
	res := p.FlushResidue(30 * time.Second)
	if res <= 0 || res > p.WorkingSet {
		t.Errorf("residue = %v", res)
	}
	// Shorter interval, smaller residue.
	if p.FlushResidue(5*time.Second) >= res {
		t.Error("residue should shrink with interval")
	}
	bw := p.FlushBandwidth(30 * time.Second)
	if bw <= 0 || bw > p.DirtyRate {
		t.Errorf("flush bandwidth = %v, want in (0, dirty rate]", bw)
	}
	if got := p.FlushBandwidth(0); got != 0 {
		t.Errorf("zero interval bandwidth = %v", got)
	}
}

func TestPrecopyConverges(t *testing.T) {
	p := jbbLike()
	bw := 100 * units.MiBps
	res := Precopy(p, p.Footprint, bw, 64*units.Mebibyte, 30)
	if !res.Converged {
		t.Fatalf("precopy did not converge: %+v", res)
	}
	if res.Rounds < 1 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if res.Transferred < p.Footprint {
		t.Errorf("transferred %v < footprint %v", res.Transferred, p.Footprint)
	}
	if res.FinalDirty > 64*units.Mebibyte {
		t.Errorf("final dirty %v above threshold", res.FinalDirty)
	}
	if res.TotalDuration != res.Duration+res.StopCopyTime {
		t.Error("total duration mismatch")
	}
	// First round alone takes footprint/bw; total must exceed it.
	if res.Duration < bw.TimeFor(p.Footprint) {
		t.Errorf("duration %v below first-round time", res.Duration)
	}
}

func TestPrecopyHotWorkloadStalls(t *testing.T) {
	// Dirty rate equal to link bandwidth: pre-copy cannot converge to a
	// small threshold; final dirty stays near the working set.
	p := Profile{
		Footprint:        8 * units.Gibibyte,
		ReadOnlyFraction: 0,
		DirtyRate:        100 * units.MiBps,
		WorkingSet:       4 * units.Gibibyte,
	}
	res := Precopy(p, p.Footprint, 100*units.MiBps, 16*units.Mebibyte, 30)
	if res.Converged {
		t.Fatalf("hot workload should not converge: %+v", res)
	}
	if res.Rounds != 30 {
		t.Errorf("rounds = %d, want all 30 exhausted", res.Rounds)
	}
	if res.FinalDirty <= 16*units.Mebibyte {
		t.Errorf("final dirty %v should remain above threshold", res.FinalDirty)
	}
}

func TestPrecopyEdgeCases(t *testing.T) {
	p := jbbLike()
	// Zero state converges trivially.
	res := Precopy(p, 0, 100*units.MiBps, units.Mebibyte, 30)
	if !res.Converged || res.Transferred != 0 || res.TotalDuration != 0 {
		t.Errorf("zero state: %+v", res)
	}
	// Zero bandwidth cannot converge.
	res = Precopy(p, p.Footprint, 0, units.Mebibyte, 30)
	if res.Converged {
		t.Errorf("zero bandwidth converged: %+v", res)
	}
	// State already under threshold: no pre-copy rounds needed.
	res = Precopy(p, 10*units.Mebibyte, 100*units.MiBps, 64*units.Mebibyte, 30)
	if !res.Converged || res.Rounds != 0 {
		t.Errorf("tiny state: %+v", res)
	}
}

func TestPrecopyFasterLinkFasterTotal(t *testing.T) {
	p := jbbLike()
	slow := Precopy(p, p.Footprint, 50*units.MiBps, 64*units.Mebibyte, 30)
	fast := Precopy(p, p.Footprint, 200*units.MiBps, 64*units.Mebibyte, 30)
	if fast.TotalDuration >= slow.TotalDuration {
		t.Errorf("faster link should migrate faster: %v vs %v",
			fast.TotalDuration, slow.TotalDuration)
	}
}
