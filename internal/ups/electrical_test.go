package ups

import (
	"testing"

	"backuppower/internal/units"
)

func TestDesignStrings(t *testing.T) {
	if Offline.String() != "offline" || Online.String() != "online" {
		t.Error("design names")
	}
	if Design(9).String() != "design(9)" {
		t.Error("unknown design name")
	}
}

func TestOfflineBeatsOnlineInNormalOperation(t *testing.T) {
	// §3's reason datacenters prefer offline: double conversion taxes
	// every watt of normal operation.
	off := DefaultElectrical(Offline)
	on := DefaultElectrical(Online)
	load, cap := 200*units.Kilowatt, 250*units.Kilowatt
	lossOff := off.NormalLoss(load, cap)
	lossOn := on.NormalLoss(load, cap)
	if lossOff >= lossOn {
		t.Fatalf("offline loss %v should undercut online %v", lossOff, lossOn)
	}
	// Online loses roughly (1/0.95/0.96 - 1) ~ 9-10% of the load.
	frac := float64(lossOn-off.StandbyW) / float64(load)
	if frac < 0.08 || frac > 0.15 {
		t.Errorf("online loss fraction = %v", frac)
	}
	// Offline pays only standby.
	if lossOff != off.StandbyW {
		t.Errorf("offline normal loss = %v, want standby only", lossOff)
	}
}

func TestLowLoadPenalty(t *testing.T) {
	e := DefaultElectrical(Online)
	cap := units.Watts(100 * units.Kilowatt)
	// Conversion loss *fraction* (standby aside) grows as load shrinks.
	heavy := float64(e.NormalLoss(90*units.Kilowatt, cap)-e.StandbyW) / 90
	light := float64(e.NormalLoss(10*units.Kilowatt, cap)-e.StandbyW) / 10
	if light <= heavy {
		t.Errorf("light-load loss fraction %v should exceed heavy %v", light, heavy)
	}
}

func TestAnnualLossEconomics(t *testing.T) {
	// A 1 MW online UPS at 80% load, $0.07/KWh: six figures a year —
	// which dwarfs the offline standby cost and explains the industry
	// preference the paper cites.
	on := DefaultElectrical(Online)
	off := DefaultElectrical(Offline)
	load, cap := 800*units.Kilowatt, units.Megawatt
	onCost := float64(on.AnnualNormalLossCost(load, cap, 0.07))
	offCost := float64(off.AnnualNormalLossCost(load, cap, 0.07))
	if onCost < 30000 {
		t.Errorf("online loss cost = %v, want substantial", onCost)
	}
	if offCost > 100 {
		t.Errorf("offline loss cost = %v, want trivial", offCost)
	}
	if onCost/offCost < 100 {
		t.Errorf("online/offline ratio = %v", onCost/offCost)
	}
}
