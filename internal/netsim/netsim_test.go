package netsim

import (
	"testing"

	"backuppower/internal/units"
)

func TestDefaultGigabit(t *testing.T) {
	l := DefaultGigabit()
	if err := l.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	// Goodput ~112.5 MB/s.
	if got := float64(l.Goodput()); !units.AlmostEqual(got, 112.5e6, 1e-6) {
		t.Errorf("goodput = %v", got)
	}
}

func TestSustainedRate(t *testing.T) {
	l := DefaultGigabit()
	if got := l.SustainedRate(3); !units.AlmostEqual(float64(got), 112.5e6/3, 1e-9) {
		t.Errorf("sustained(3) = %v", got)
	}
	if l.SustainedRate(-1) != l.Goodput() {
		t.Error("negative sharers should clamp")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := DefaultGigabit()
	bad.LineRate = 0
	if bad.Validate() == nil {
		t.Error("zero rate should fail")
	}
	bad = DefaultGigabit()
	bad.Efficiency = 1.2
	if bad.Validate() == nil {
		t.Error("efficiency > 1 should fail")
	}
	bad = DefaultGigabit()
	bad.SetupLatency = -1
	if bad.Validate() == nil {
		t.Error("negative setup should fail")
	}
}
