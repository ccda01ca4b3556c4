// Package loadprofile models time-varying datacenter utilization. Backup
// underprovisioning interacts with load: an outage at the daily trough is
// far easier to ride than one at peak, so yearly availability analyses and
// capacity planning (Section 7's "capacity planning could depend on
// historic data") should weight outages by when they land.
package loadprofile

import (
	"math"
	"time"

	"backuppower/internal/units"
)

// Profile yields a utilization multiplier for a moment in time (expressed
// as an offset into the year, matching outage.Event.Start).
type Profile interface {
	// At returns the relative load in (0, 1] at the given offset.
	At(t time.Duration) float64
}

// Diurnal is the classic interactive-service daily wave with a weekly dip:
// a sinusoid between Trough and Peak with its maximum at PeakHour, scaled
// by WeekendFactor on days 6 and 7.
type Diurnal struct {
	Trough, Peak  float64
	PeakHour      float64 // local hour of daily maximum (0-24)
	WeekendFactor float64 // multiplier applied on weekends (0 < f <= 1)
}

// Typical is a representative interactive-service profile: 45% trough,
// 100% peak at 14:00, 85% weekend load.
func Typical() Diurnal {
	return Diurnal{Trough: 0.45, Peak: 1.0, PeakHour: 14, WeekendFactor: 0.85}
}

// At implements Profile.
func (d Diurnal) At(t time.Duration) float64 {
	hours := t.Hours()
	hourOfDay := math.Mod(hours, 24)
	mid := (d.Peak + d.Trough) / 2
	amp := (d.Peak - d.Trough) / 2
	phase := (hourOfDay - d.PeakHour) / 24 * 2 * math.Pi
	v := mid + amp*math.Cos(phase)
	day := int(hours/24) % 7
	if day >= 5 { // days 5,6 of each week are the weekend
		v *= d.WeekendFactor
	}
	return units.Clamp01(v)
}

// Scale applies the profile at time t to a base utilization, clamped to
// (0, 1].
func Scale(p Profile, t time.Duration, base float64) float64 {
	if p == nil {
		return base
	}
	v := base * p.At(t) / maxOf(p)
	if v <= 0 {
		return base
	}
	return units.Clamp01(v)
}

// maxOf samples the profile over a week to normalize Scale so that the
// profile's own maximum maps to the base utilization.
func maxOf(p Profile) float64 {
	max := 0.0
	for h := 0; h < 24*7; h++ {
		if v := p.At(time.Duration(h) * time.Hour); v > max {
			max = v
		}
	}
	if max <= 0 {
		return 1
	}
	return max
}
