package loadprofile

import (
	"testing"
	"time"
)

func TestDiurnalShape(t *testing.T) {
	d := Typical()
	// Peak at 14:00 on a weekday (day 0).
	peak := d.At(14 * time.Hour)
	trough := d.At(2 * time.Hour)
	if peak <= trough {
		t.Fatalf("peak %v should exceed trough %v", peak, trough)
	}
	if peak < 0.99 {
		t.Errorf("peak = %v, want ~1.0", peak)
	}
	if trough > 0.55 {
		t.Errorf("trough = %v, want ~0.45", trough)
	}
	// Weekend dip: same hour, day 5.
	weekday := d.At(14 * time.Hour)
	weekend := d.At(5*24*time.Hour + 14*time.Hour)
	if weekend >= weekday {
		t.Errorf("weekend %v should dip below weekday %v", weekend, weekday)
	}
	// Bounded everywhere.
	for h := 0; h < 24*7; h++ {
		v := d.At(time.Duration(h) * time.Hour)
		if v <= 0 || v > 1 {
			t.Fatalf("load out of range at h=%d: %v", h, v)
		}
	}
}

func TestScaleNormalized(t *testing.T) {
	d := Typical()
	// At the weekly peak, scaling returns the base itself.
	base := 0.95
	if got := Scale(d, 14*time.Hour, base); got < base-1e-9 || got > base+1e-9 {
		t.Errorf("peak scale = %v, want %v", got, base)
	}
	// At the trough it drops proportionally.
	low := Scale(d, 2*time.Hour, base)
	if low >= base || low < 0.3 {
		t.Errorf("trough scale = %v", low)
	}
	// Nil profile is identity.
	if got := Scale(nil, 0, base); got != base {
		t.Errorf("nil scale = %v", got)
	}
}
