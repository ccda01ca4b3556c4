package storage

import (
	"testing"
	"time"

	"backuppower/internal/units"
)

func TestTable8HibernateCalibration(t *testing.T) {
	d := DefaultLocal()
	state := 18 * units.Gibibyte
	// Hibernate save: ~230 s.
	save := d.WriteTime(state, 1.0)
	if !units.AlmostEqual(save.Seconds(), 230, 0.02) {
		t.Errorf("18GiB save = %v, want ~230s", save)
	}
	// Resume: ~157 s.
	resume := d.ReadTime(state, 1.0)
	if !units.AlmostEqual(resume.Seconds(), 157, 0.02) {
		t.Errorf("18GiB resume = %v, want ~157s", resume)
	}
	// Hibernate-L (50% throttle): ~385 s.
	saveL := d.WriteTime(state, 0.5)
	if !units.AlmostEqual(saveL.Seconds(), 385, 0.02) {
		t.Errorf("18GiB throttled save = %v, want ~385s", saveL)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultLocal().Validate(); err != nil {
		t.Errorf("local invalid: %v", err)
	}
	bad := Disk{Name: "bad", WriteRate: 0, ReadRate: 1}
	if bad.Validate() == nil {
		t.Error("zero write rate should fail")
	}
}

func TestThrottleMonotone(t *testing.T) {
	d := DefaultLocal()
	prev := time.Duration(0)
	for _, th := range []float64{1.0, 0.8, 0.6, 0.4, 0.2, 0.0} {
		cur := d.WriteTime(units.Gibibyte, th)
		if cur <= prev {
			t.Fatalf("write time should grow as throttle deepens: %v at %v", cur, th)
		}
		prev = cur
	}
	// Even fully throttled, the I/O floor keeps transfers finite.
	if d.WriteTime(units.Gibibyte, 0) > time.Hour {
		t.Error("fully throttled write should stay finite via I/O floor")
	}
}

func TestThrottleClamped(t *testing.T) {
	d := DefaultLocal()
	if d.WriteTime(units.Gibibyte, 2.0) != d.WriteTime(units.Gibibyte, 1.0) {
		t.Error("throttle above 1 should clamp")
	}
	if d.ReadTime(units.Gibibyte, -1) != d.ReadTime(units.Gibibyte, 0) {
		t.Error("negative throttle should clamp")
	}
}

func TestReadWriteScaleWithSize(t *testing.T) {
	d := DefaultLocal()
	one := d.WriteTime(units.Gibibyte, 1)
	two := d.WriteTime(2*units.Gibibyte, 1)
	if !units.AlmostEqual(two.Seconds(), 2*one.Seconds(), 1e-9) {
		t.Errorf("write time not linear: %v vs %v", two, one)
	}
}
