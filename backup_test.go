package backuppower_test

import (
	"fmt"
	"testing"
	"time"

	backuppower "backuppower"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	fw := backuppower.NewFramework(16)
	res, err := fw.Evaluate(
		backuppower.LargeEUPS(fw.Env.PeakPower()),
		backuppower.Throttling{PState: 6},
		backuppower.Specjbb(),
		30*time.Minute)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !res.Survived || res.Downtime != 0 {
		t.Errorf("throttled LargeEUPS: %+v", res)
	}
}

func TestPublicConfigurations(t *testing.T) {
	peak := 4 * backuppower.Megawatt
	if got := len(backuppower.Table3(peak)); got != 9 {
		t.Errorf("Table3 = %d configs", got)
	}
	if got := len(backuppower.Workloads()); got != 4 {
		t.Errorf("Workloads = %d", got)
	}
	b := backuppower.CustomBackup("mine", 0, peak/2, 45*time.Minute)
	if b.AnnualCost() <= 0 {
		t.Error("custom backup cost")
	}
}

func TestPublicSizing(t *testing.T) {
	fw := backuppower.NewFramework(16)
	op, ok := fw.MinCostUPS(backuppower.Sleep{LowPower: true}, backuppower.Memcached(), 20*time.Minute)
	if !ok {
		t.Fatal("sizing failed")
	}
	if op.NormCost <= 0 || op.NormCost > 0.5 {
		t.Errorf("sleep sizing cost = %v", op.NormCost)
	}
}

func TestPublicTCO(t *testing.T) {
	a, err := backuppower.NewTCO()
	if err != nil {
		t.Fatalf("NewTCO: %v", err)
	}
	if c := a.Crossover(); c < 4*time.Hour || c > 6*time.Hour {
		t.Errorf("crossover = %v", c)
	}
}

func TestPublicOutageTools(t *testing.T) {
	gen := backuppower.NewOutageGen(1)
	_ = gen.Year()
	pred, err := backuppower.NewPredictor(backuppower.OutageDurations(), 50)
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	if pred.RemainingQuantile(0, 0.5) <= 0 {
		t.Error("predictor remaining")
	}
}

func ExampleFramework_Evaluate() {
	fw := backuppower.NewFramework(16)
	res, err := fw.Evaluate(
		backuppower.NoDG(fw.Env.PeakPower()),
		backuppower.Sleep{LowPower: true},
		backuppower.Specjbb(),
		30*time.Second)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("survived=%v downtime=%v\n", res.Survived, res.Downtime)
	// Output: survived=true downtime=38s
}
