// Package units provides the physical and monetary quantities used
// throughout the backup-power models: electrical power (watts), energy
// (watt-hours), data sizes and transfer rates, and amortized dollar costs.
//
// All quantities are simple float64-based named types so that arithmetic
// stays cheap and explicit, while the type names keep watt/watt-hour and
// $/KW vs $/KWh confusions out of the cost model (the distinction the paper
// leans on: DG cost scales with power, UPS cost with power AND energy).
package units

import (
	"fmt"
	"math"
	"time"
)

// Watts is electrical power.
type Watts float64

// Common power scales.
const (
	Watt     Watts = 1
	Kilowatt Watts = 1e3
	Megawatt Watts = 1e6
)

// KW returns the power in kilowatts.
func (w Watts) KW() float64 { return float64(w) / 1e3 }

// MW returns the power in megawatts.
func (w Watts) MW() float64 { return float64(w) / 1e6 }

// String formats the power with an adaptive unit.
func (w Watts) String() string {
	a := math.Abs(float64(w))
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.2f MW", w.MW())
	case a >= 1e3:
		return fmt.Sprintf("%.2f KW", w.KW())
	default:
		return fmt.Sprintf("%.1f W", float64(w))
	}
}

// ForDuration returns the energy delivered by drawing power w for d.
func (w Watts) ForDuration(d time.Duration) WattHours {
	return WattHours(float64(w) * d.Hours())
}

// WattHours is electrical energy.
type WattHours float64

// Common energy scales.
const (
	WattHour     WattHours = 1
	KilowattHour WattHours = 1e3
	MegawattHour WattHours = 1e6
)

// KWh returns the energy in kilowatt-hours.
func (e WattHours) KWh() float64 { return float64(e) / 1e3 }

// String formats the energy with an adaptive unit.
func (e WattHours) String() string {
	a := math.Abs(float64(e))
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.2f MWh", float64(e)/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.2f KWh", e.KWh())
	default:
		return fmt.Sprintf("%.1f Wh", float64(e))
	}
}

// Bytes is a data size.
type Bytes int64

// Common data-size scales.
const (
	Byte     Bytes = 1
	Kibibyte Bytes = 1 << 10
	Mebibyte Bytes = 1 << 20
	Gibibyte Bytes = 1 << 30
)

// GiB returns the size in gibibytes.
func (b Bytes) GiB() float64 { return float64(b) / float64(Gibibyte) }

// MiB returns the size in mebibytes.
func (b Bytes) MiB() float64 { return float64(b) / float64(Mebibyte) }

// String formats the size with an adaptive unit.
func (b Bytes) String() string {
	a := math.Abs(float64(b))
	switch {
	case a >= float64(Gibibyte):
		return fmt.Sprintf("%.1f GiB", b.GiB())
	case a >= float64(Mebibyte):
		return fmt.Sprintf("%.1f MiB", b.MiB())
	case a >= float64(Kibibyte):
		return fmt.Sprintf("%.1f KiB", float64(b)/float64(Kibibyte))
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// BytesPerSecond is a data transfer rate.
type BytesPerSecond float64

// Common rate scales. GigabitEthernet is the effective payload rate of a
// 1 Gbps NIC as used in the paper's migration experiments.
const (
	MiBps           BytesPerSecond = BytesPerSecond(Mebibyte)
	GigabitEthernet BytesPerSecond = 1e9 / 8 // 125 MB/s line rate
)

// TimeFor returns the time to move size bytes at this rate.
func (r BytesPerSecond) TimeFor(size Bytes) time.Duration {
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(float64(size) / float64(r) * float64(time.Second))
}

// String formats the rate in MB/s.
func (r BytesPerSecond) String() string {
	return fmt.Sprintf("%.1f MB/s", float64(r)/1e6)
}

// DollarsPerYear is an amortized annual cost.
type DollarsPerYear float64

// String formats the cost adaptively ($, K$, M$).
func (d DollarsPerYear) String() string {
	a := math.Abs(float64(d))
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.2f M$/yr", float64(d)/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.1f K$/yr", float64(d)/1e3)
	default:
		return fmt.Sprintf("%.2f $/yr", float64(d))
	}
}

// Clamp01 clamps x into [0, 1]. Shared by the performance models.
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// AlmostEqual reports whether a and b agree within relative tolerance tol
// (absolute for values near zero). Used by model self-checks and tests.
func AlmostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
