package availability

import (
	"context"
	"testing"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

func planner(b cost.Backup) *Planner {
	fw := core.New(16)
	return &Planner{Framework: fw, Workload: workload.Specjbb(), Backup: b}
}

func TestMaxPerfIsNearPerfect(t *testing.T) {
	fw := core.New(16)
	p := planner(cost.MaxPerf(fw.Env.PeakPower()))
	sum, stats, err := p.SimulateYears(20, 1)
	if err != nil {
		t.Fatalf("SimulateYears: %v", err)
	}
	if len(stats) != 20 {
		t.Fatalf("stats = %d years", len(stats))
	}
	if sum.MeanDowntime != 0 {
		t.Errorf("MaxPerf downtime = %v", sum.MeanDowntime)
	}
	if sum.Nines != 9 {
		t.Errorf("MaxPerf nines = %v", sum.Nines)
	}
	if sum.MeanStateLossesYear != 0 {
		t.Errorf("MaxPerf state losses = %v", sum.MeanStateLossesYear)
	}
}

func TestMinCostIsAwful(t *testing.T) {
	fw := core.New(16)
	p := planner(cost.MinCost(fw.Env.PeakPower()))
	sum, _, err := p.SimulateYears(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanDowntime <= 0 {
		t.Error("MinCost should accrue downtime")
	}
	if sum.MeanStateLossesYear <= 0 {
		t.Error("MinCost should crash on every outage")
	}
	if sum.Availability >= 1 {
		t.Errorf("availability = %v", sum.Availability)
	}
}

func TestOrderingAcrossConfigs(t *testing.T) {
	fw := core.New(16)
	peak := fw.Env.PeakPower()
	configs := []cost.Backup{
		cost.MaxPerf(peak), cost.LargeEUPS(peak), cost.NoDG(peak), cost.MinCost(peak),
	}
	sums, err := CompareConfigsCtx(context.Background(), fw, workload.Specjbb(), configs, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 4 {
		t.Fatalf("sums = %d", len(sums))
	}
	// Same shared trace: downtime must be monotone as backup shrinks.
	for i := 1; i < len(sums); i++ {
		if sums[i].MeanDowntime < sums[i-1].MeanDowntime {
			t.Errorf("downtime ordering broken: %s %v < %s %v",
				sums[i].Config, sums[i].MeanDowntime, sums[i-1].Config, sums[i-1].MeanDowntime)
		}
	}
	// Costs must be strictly decreasing for this list.
	for i := 1; i < len(sums); i++ {
		if sums[i].NormCost >= sums[i-1].NormCost {
			t.Errorf("cost ordering broken at %s", sums[i].Config)
		}
	}
	// LargeEUPS should be dramatically better than MinCost on nines.
	if sums[1].Nines <= sums[3].Nines {
		t.Errorf("LargeEUPS nines %v should beat MinCost %v", sums[1].Nines, sums[3].Nines)
	}
}

func TestFixedTechniquePlanner(t *testing.T) {
	fw := core.New(16)
	p := planner(cost.LargeEUPS(fw.Env.PeakPower()))
	p.Technique = technique.Sleep{LowPower: true}
	sum, _, err := p.SimulateYears(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sleeping through every outage: downtime ≈ outage time + resumes,
	// but no state losses (battery easily holds sleep loads).
	if sum.MeanStateLossesYear != 0 {
		t.Errorf("sleep-L state losses = %v", sum.MeanStateLossesYear)
	}
	if sum.MeanDowntime < sum.MeanOutageTime {
		t.Errorf("sleep downtime %v should cover outage time %v",
			sum.MeanDowntime, sum.MeanOutageTime)
	}
}

func TestRevenueLossPriced(t *testing.T) {
	fw := core.New(16)
	p := planner(cost.MinCost(fw.Env.PeakPower()))
	sum, _, err := p.SimulateYears(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.RevenueLossPerKWYear <= 0 {
		t.Error("revenue loss should be priced")
	}
	if sum.DGSavingsPerKWYear != 83.3 {
		t.Errorf("DG savings = %v", sum.DGSavingsPerKWYear)
	}
}

func TestValidation(t *testing.T) {
	p := &Planner{}
	if _, _, err := p.SimulateYears(1, 1); err == nil {
		t.Error("nil framework should fail")
	}
	fw := core.New(16)
	good := planner(cost.MaxPerf(fw.Env.PeakPower()))
	if _, _, err := good.SimulateYears(0, 1); err == nil {
		t.Error("zero years should fail")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	fw := core.New(16)
	a, _, _ := planner(cost.NoDG(fw.Env.PeakPower())).SimulateYears(5, 11)
	b, _, _ := planner(cost.NoDG(fw.Env.PeakPower())).SimulateYears(5, 11)
	if a.MeanDowntime != b.MeanDowntime || a.MeanOutagesPerYear != b.MeanOutagesPerYear {
		t.Error("same seed should reproduce")
	}
}

func TestNines(t *testing.T) {
	cases := []struct {
		avail float64
		want  float64
	}{
		{1, 9}, {0, 0}, {0.9, 1}, {0.999, 3},
	}
	for _, c := range cases {
		got := nines(c.avail)
		if got < c.want-0.01 || got > c.want+0.01 {
			t.Errorf("nines(%v) = %v, want %v", c.avail, got, c.want)
		}
	}
}

func TestYearStatsConsistency(t *testing.T) {
	fw := core.New(16)
	p := planner(cost.NoDG(fw.Env.PeakPower()))
	_, stats, err := p.SimulateYears(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, ys := range stats {
		if ys.ServiceLoss < ys.Downtime {
			t.Errorf("year %d: service loss %v < downtime %v", i, ys.ServiceLoss, ys.Downtime)
		}
		if ys.StateLosses > ys.Outages {
			t.Errorf("year %d: more crashes than outages", i)
		}
		if time.Duration(ys.Outages) != 0 && ys.OutageTime <= 0 {
			t.Errorf("year %d: outages without outage time", i)
		}
	}
}
