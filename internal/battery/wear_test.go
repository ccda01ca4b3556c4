package battery

import (
	"math"
	"testing"

	"backuppower/internal/units"
)

func TestCyclesAtShape(t *testing.T) {
	w := LeadAcidWear()
	if got := w.CyclesAt(1); got != 500 {
		t.Errorf("full DoD cycles = %v", got)
	}
	// Shallow cycles are disproportionately cheap.
	half := w.CyclesAt(0.5)
	if half <= 1000 {
		t.Errorf("half DoD cycles = %v, want > 2x full (Wöhler)", half)
	}
	if !math.IsInf(w.CyclesAt(0), 1) {
		t.Error("zero DoD should be free")
	}
	// DoD above 1 clamps.
	if w.CyclesAt(2) != w.CyclesAt(1) {
		t.Error("DoD should clamp at 1")
	}
}

func TestPaperWearClaim(t *testing.T) {
	// Section 2(d): for backup duty, wear is dominated by calendar aging;
	// for peak shaving it is not.
	w := LeadAcidWear()
	backup := w.LifeYears(BackupDuty())
	shaving := w.LifeYears(PeakShavingDuty())
	// Backup life ≈ calendar life (within 2%).
	if !units.AlmostEqual(backup, w.CalendarLifeYears, 0.02) {
		t.Errorf("backup life = %v years, want ~%v (calendar-dominated)", backup, w.CalendarLifeYears)
	}
	// Peak shaving at least halves the life.
	if shaving > w.CalendarLifeYears/2 {
		t.Errorf("peak-shaving life = %v years, want heavy wear", shaving)
	}
	// Cost multipliers follow.
	if m := w.CostMultiplier(BackupDuty()); m > 1.03 {
		t.Errorf("backup cost multiplier = %v, want ~1", m)
	}
	if m := w.CostMultiplier(PeakShavingDuty()); m < 2 {
		t.Errorf("peak-shaving multiplier = %v, want >= 2", m)
	}
}

func TestLiIonOutlastsLeadAcid(t *testing.T) {
	la, li := LeadAcidWear(), LiIonWear()
	if li.LifeYears(PeakShavingDuty()) <= la.LifeYears(PeakShavingDuty()) {
		t.Error("li-ion should outlast lead-acid under cycling")
	}
	if li.LifeYears(BackupDuty()) <= la.LifeYears(BackupDuty()) {
		t.Error("li-ion should outlast lead-acid on the shelf too")
	}
}

func TestLifeYearsMonotone(t *testing.T) {
	w := LeadAcidWear()
	prev := math.Inf(1)
	for _, cpy := range []float64{0, 1, 10, 100, 1000} {
		life := w.LifeYears(cpy, 0.5)
		if life > prev {
			t.Fatalf("life grew with more cycling at %v/yr", cpy)
		}
		if life > w.CalendarLifeYears {
			t.Fatalf("life %v exceeds calendar bound", life)
		}
		prev = life
	}
	// Negative cycling clamps to zero.
	if w.LifeYears(-5, 0.5) != w.LifeYears(0, 0.5) {
		t.Error("negative cycles should clamp")
	}
}
