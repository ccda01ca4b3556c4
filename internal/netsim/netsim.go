// Package netsim models the datacenter network paths used during outage
// handling: the 1 Gbps per-server NICs that live migration and proactive
// (Remus-style) state replication run over. It captures effective payload
// bandwidth, per-transfer protocol overhead, and contention when several
// servers migrate through a shared uplink at once.
package netsim

import (
	"fmt"
	"time"

	"backuppower/internal/units"
)

// Link is a network path with an effective payload bandwidth.
type Link struct {
	Name string
	// LineRate is the raw signalling rate.
	LineRate units.BytesPerSecond
	// Efficiency is the payload fraction after TCP/IP and migration
	// protocol framing (~0.90 for the bulk transfers live migration does).
	Efficiency float64
	// SetupLatency is the per-transfer connection/handshake cost.
	SetupLatency time.Duration
}

// DefaultGigabit is the testbed's 1 Gbps Ethernet NIC.
func DefaultGigabit() Link {
	return Link{
		Name:         "1gbe",
		LineRate:     units.GigabitEthernet,
		Efficiency:   0.90,
		SetupLatency: 50 * time.Millisecond,
	}
}

// Validate checks the link.
func (l Link) Validate() error {
	switch {
	case l.LineRate <= 0:
		return fmt.Errorf("netsim: %s non-positive line rate", l.Name)
	case l.Efficiency <= 0 || l.Efficiency > 1:
		return fmt.Errorf("netsim: %s efficiency %v out of (0,1]", l.Name, l.Efficiency)
	case l.SetupLatency < 0:
		return fmt.Errorf("netsim: %s negative setup latency", l.Name)
	}
	return nil
}

// Goodput is the effective payload bandwidth.
func (l Link) Goodput() units.BytesPerSecond {
	return l.LineRate * units.BytesPerSecond(l.Efficiency)
}

// SustainedRate returns the per-transfer rate under contention.
func (l Link) SustainedRate(sharers int) units.BytesPerSecond {
	if sharers < 1 {
		sharers = 1
	}
	return l.Goodput() / units.BytesPerSecond(sharers)
}
