// Package storage models the persistent storage paths the outage-handling
// techniques depend on: the local disk that hibernation writes memory
// images to (and resumes from), and the shared storage server that holds
// application persistent state (assumed to keep backup power even when the
// compute backup is underprovisioned, per Section 5's migration setup).
//
// Rates are calibrated to Table 8: hibernating SPECjbb's 18 GB takes 230 s
// (~80 MB/s effective save) and resuming takes 157 s (~118 MB/s restore).
package storage

import (
	"fmt"
	"time"

	"backuppower/internal/units"
)

// Disk is a sequential-rate storage device model.
type Disk struct {
	Name      string
	WriteRate units.BytesPerSecond
	ReadRate  units.BytesPerSecond
}

// DefaultLocal is the testbed's local disk.
func DefaultLocal() Disk {
	return Disk{
		Name:      "local-hdd",
		WriteRate: 80 * units.MiBps * 1.0018, // calibrated: 18 GiB / 230 s
		ReadRate:  117.5 * units.MiBps,       // calibrated: 18 GiB / 157 s
	}
}

// Validate checks the device.
func (d Disk) Validate() error {
	if d.WriteRate <= 0 || d.ReadRate <= 0 {
		return fmt.Errorf("storage: %s has non-positive rates", d.Name)
	}
	return nil
}

// WriteTime returns the time to persist size bytes sequentially. The
// throttle factor scales effective bandwidth down when the CPU driving the
// I/O is throttled (the paper's Hibernate-L takes 385 s vs 230 s at half
// power — I/O issue rate follows the clock).
func (d Disk) WriteTime(size units.Bytes, throttle float64) time.Duration {
	return effective(d.WriteRate, throttle).TimeFor(size)
}

// ReadTime returns the time to read size bytes sequentially.
func (d Disk) ReadTime(size units.Bytes, throttle float64) time.Duration {
	return effective(d.ReadRate, throttle).TimeFor(size)
}

// effective derates a rate by CPU throttle: at full speed the disk is the
// bottleneck; as the CPU slows the issue path dominates. The blend keeps
// Hibernate-L/Hibernate ≈ 385/230 at 50% throttle (Table 8): a 33% I/O
// floor plus clock-proportional remainder.
func effective(r units.BytesPerSecond, throttle float64) units.BytesPerSecond {
	throttle = units.Clamp01(throttle)
	const floor = 0.195
	return r * units.BytesPerSecond(floor+(1-floor)*throttle)
}
