package cluster

import (
	"testing"
	"time"

	"backuppower/internal/cost"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

func env() technique.Env { return technique.DefaultEnv(16) }

func scn(b cost.Backup, tech technique.Technique, w workload.Spec, outage time.Duration) Scenario {
	return Scenario{Env: env(), Workload: w, Backup: b, Technique: tech, Outage: outage}
}

func mustSim(t *testing.T, s Scenario) Result {
	t.Helper()
	r, err := Simulate(s)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return r
}

func TestMaxPerfSeamless(t *testing.T) {
	peak := env().PeakPower()
	for _, outage := range []time.Duration{30 * time.Second, 30 * time.Minute, 2 * time.Hour} {
		r := mustSim(t, scn(cost.MaxPerf(peak), technique.Baseline{}, workload.Specjbb(), outage))
		if !r.Survived {
			t.Fatalf("MaxPerf crashed at %v for %v outage", r.CrashedAt, outage)
		}
		if r.Downtime != 0 {
			t.Errorf("MaxPerf downtime = %v for %v", r.Downtime, outage)
		}
		if !units.AlmostEqual(r.Perf, 1, 1e-9) {
			t.Errorf("MaxPerf perf = %v for %v", r.Perf, outage)
		}
		if !units.AlmostEqual(r.Cost, 1, 1e-9) {
			t.Errorf("MaxPerf cost = %v", r.Cost)
		}
	}
}

func TestMinCostCrash(t *testing.T) {
	peak := env().PeakPower()
	r := mustSim(t, scn(cost.MinCost(peak), technique.Baseline{}, workload.Specjbb(), 30*time.Second))
	if r.Survived {
		t.Fatal("MinCost should crash")
	}
	if r.CrashedAt != 0 {
		t.Errorf("crash at %v, want 0", r.CrashedAt)
	}
	// Paper: ~400 s down for a 30 s outage (restart + recreate + catch-up).
	if !units.AlmostEqual(r.Downtime.Seconds(), 400, 0.08) {
		t.Errorf("MinCost specjbb downtime = %v, want ~400s", r.Downtime)
	}
	if r.Perf != 0 {
		t.Errorf("MinCost perf = %v", r.Perf)
	}
	if r.Cost != 0 {
		t.Errorf("MinCost cost = %v", r.Cost)
	}
}

func TestMinCostMemcachedAndWebSearch(t *testing.T) {
	peak := env().PeakPower()
	mc := mustSim(t, scn(cost.MinCost(peak), technique.Baseline{}, workload.Memcached(), 30*time.Second))
	if !units.AlmostEqual(mc.Downtime.Seconds(), 480, 0.08) {
		t.Errorf("memcached MinCost downtime = %v, want ~480s", mc.Downtime)
	}
	ws := mustSim(t, scn(cost.MinCost(peak), technique.Baseline{}, workload.WebSearch(), 30*time.Second))
	if !units.AlmostEqual(ws.Downtime.Seconds(), 610, 0.08) {
		t.Errorf("web-search MinCost downtime = %v, want ~600s", ws.Downtime)
	}
}

func TestNoUPSCrashThenDGRestores(t *testing.T) {
	peak := env().PeakPower()
	// Long outage: DG converts it into a ~2.5 min one.
	r := mustSim(t, scn(cost.NoUPS(peak), technique.Baseline{}, workload.Specjbb(), 2*time.Hour))
	if r.Survived {
		t.Fatal("NoUPS should crash at outage start")
	}
	wantDown := 150 + 370.0 // DG ramp + specjbb recovery
	if !units.AlmostEqual(r.Downtime.Seconds(), wantDown, 0.1) {
		t.Errorf("NoUPS downtime = %v, want ~%vs", r.Downtime, wantDown)
	}
	// Performance returns once the DG carries the load and recovery ends:
	// for a 2 h outage most of the window is at full service.
	if r.Perf < 0.9 {
		t.Errorf("NoUPS 2h perf = %v, want > 0.9", r.Perf)
	}
	// Short outage: same downtime as MinCost (utility back before DG).
	short := mustSim(t, scn(cost.NoUPS(peak), technique.Baseline{}, workload.Specjbb(), 30*time.Second))
	minc := mustSim(t, scn(cost.MinCost(peak), technique.Baseline{}, workload.Specjbb(), 30*time.Second))
	if short.Downtime != minc.Downtime {
		t.Errorf("NoUPS short-outage downtime %v should equal MinCost %v", short.Downtime, minc.Downtime)
	}
}

func TestNoDGRidesShortOutagesOnly(t *testing.T) {
	peak := env().PeakPower()
	w := workload.Specjbb()
	// 2-minute UPS at full power rides a 1-minute outage seamlessly.
	short := mustSim(t, scn(cost.NoDG(peak), technique.Baseline{}, w, time.Minute))
	if !short.Survived || short.Downtime != 0 || short.Perf < 0.999 {
		t.Errorf("NoDG 1min: %+v", short)
	}
	// A 5-minute outage kills it partway (paper: NoDG degrades at 5 min).
	long := mustSim(t, scn(cost.NoDG(peak), technique.Baseline{}, w, 5*time.Minute))
	if long.Survived {
		t.Fatal("NoDG baseline should not survive 5 min")
	}
	if long.CrashedAt < time.Minute || long.CrashedAt > 3*time.Minute {
		t.Errorf("NoDG crash at %v, want ~2min", long.CrashedAt)
	}
}

func TestLargeEUPSMatchesMaxPerfUpTo30Min(t *testing.T) {
	// Paper §6.1: LargeEUPS (30 min battery, no DG) achieves MaxPerf
	// performance up to 30 min outages at 55% of the cost.
	peak := env().PeakPower()
	w := workload.Specjbb()
	r := mustSim(t, scn(cost.LargeEUPS(peak), technique.Baseline{}, w, 30*time.Minute))
	if !r.Survived || r.Downtime != 0 {
		t.Fatalf("LargeEUPS 30min: survived=%v down=%v", r.Survived, r.Downtime)
	}
	if !units.AlmostEqual(r.Perf, 1, 1e-9) {
		t.Errorf("LargeEUPS perf = %v", r.Perf)
	}
	if !units.AlmostEqual(r.Cost, 0.55, 0.02) {
		t.Errorf("LargeEUPS cost = %v", r.Cost)
	}
}

func TestLargeEUPSThrottledSurvivesAnHour(t *testing.T) {
	// Paper: with ~40% perf degradation, UPS-only sustains 1 h outages.
	peak := env().PeakPower()
	w := workload.Specjbb()
	deepest := len(env().Server.PStates) - 1
	r := mustSim(t, scn(cost.LargeEUPS(peak), technique.Throttling{PState: deepest}, w, time.Hour))
	if !r.Survived {
		t.Fatalf("throttled LargeEUPS crashed at %v", r.CrashedAt)
	}
	if r.Downtime != 0 {
		t.Errorf("downtime = %v", r.Downtime)
	}
	if r.Perf < 0.35 || r.Perf > 0.7 {
		t.Errorf("throttled perf = %v, want mid-range", r.Perf)
	}
}

func TestSleepDowntimeCalibration(t *testing.T) {
	// Paper: Sleep-L yields 38 s downtime for a 30 s outage.
	peak := env().PeakPower()
	w := workload.Specjbb()
	r := mustSim(t, scn(cost.NoDG(peak), technique.Sleep{LowPower: true}, w, 30*time.Second))
	if !r.Survived {
		t.Fatal("sleep should survive easily on a full 2-min UPS")
	}
	if !units.AlmostEqual(r.Downtime.Seconds(), 38, 0.03) {
		t.Errorf("Sleep-L downtime = %v, want 38s", r.Downtime)
	}
	if r.Perf != 0 {
		t.Errorf("sleep perf = %v", r.Perf)
	}
}

func TestHibernateDowntimeCalibration(t *testing.T) {
	// Save 230 s + resume 157 s ≈ 387 s for a 30 s outage.
	peak := env().PeakPower()
	w := workload.Specjbb()
	r := mustSim(t, scn(cost.NoDG(peak), technique.Hibernate{}, w, 30*time.Second))
	if !r.Survived {
		t.Fatal("hibernate should survive")
	}
	if !units.AlmostEqual(r.Downtime.Seconds(), 387, 0.05) {
		t.Errorf("hibernate downtime = %v, want ~387s", r.Downtime)
	}
}

func TestMemcachedHibernateWorseThanCrash(t *testing.T) {
	// §6.2's surprise: for Memcached, Hibernation (~1100+ s) loses to
	// simply crashing and reloading (~480 s).
	peak := env().PeakPower()
	w := workload.Memcached()
	hib := mustSim(t, scn(cost.NoDG(peak), technique.Hibernate{}, w, 30*time.Second))
	crash := mustSim(t, scn(cost.MinCost(peak), technique.Baseline{}, w, 30*time.Second))
	if hib.Downtime <= crash.Downtime {
		t.Errorf("memcached hibernate %v should exceed crash %v", hib.Downtime, crash.Downtime)
	}
	if hib.Downtime < 15*time.Minute {
		t.Errorf("memcached hibernate downtime = %v, want ~1000s+", hib.Downtime)
	}
}

func TestWebSearchHibernateBeatsCrash(t *testing.T) {
	peak := env().PeakPower()
	w := workload.WebSearch()
	hib := mustSim(t, scn(cost.NoDG(peak), technique.Hibernate{}, w, 30*time.Second))
	crash := mustSim(t, scn(cost.MinCost(peak), technique.Baseline{}, w, 30*time.Second))
	if hib.Downtime >= crash.Downtime {
		t.Errorf("web-search hibernate %v should beat crash %v", hib.Downtime, crash.Downtime)
	}
}

func TestSleepBatteryDeathLosesState(t *testing.T) {
	// Sleep on a small battery across a long outage: S3 DRAM dies with
	// the battery -> crash recovery, not a clean resume.
	peak := env().PeakPower()
	w := workload.Specjbb()
	r := mustSim(t, scn(cost.NoDG(peak), technique.Sleep{}, w, 24*time.Hour))
	if r.Survived {
		t.Fatal("2-min-rated battery cannot hold S3 for 24h")
	}
	if r.CrashedAt <= 0 || r.CrashedAt >= 24*time.Hour {
		t.Errorf("crash at %v", r.CrashedAt)
	}
	// Downtime covers the whole outage plus crash recovery.
	if r.Downtime < 24*time.Hour {
		t.Errorf("downtime = %v", r.Downtime)
	}
}

func TestHibernateBatteryDeathAfterSaveIsSafe(t *testing.T) {
	// Hibernation's whole point: once saved, battery exhaustion is
	// harmless; resume cleanly when power returns. Needs a battery that
	// outlasts the 230 s save at full power — LargeEUPS qualifies.
	peak := env().PeakPower()
	w := workload.Specjbb()
	r := mustSim(t, scn(cost.LargeEUPS(peak), technique.Hibernate{}, w, 24*time.Hour))
	if !r.Survived {
		t.Fatalf("hibernate crashed at %v", r.CrashedAt)
	}
	want := 24*time.Hour + 157*time.Second
	if !units.AlmostEqual(r.Downtime.Seconds(), want.Seconds(), 0.01) {
		t.Errorf("downtime = %v, want ~%v", r.Downtime, want)
	}
}

func TestHibernateSaveNeedsEnoughBattery(t *testing.T) {
	// On the plain 2-minute NoDG battery, the 230 s full-power save
	// cannot finish over a long outage: the battery dies mid-save and
	// the state is lost — underprovisioned energy bites save-state too.
	peak := env().PeakPower()
	w := workload.Specjbb()
	r := mustSim(t, scn(cost.NoDG(peak), technique.Hibernate{}, w, 24*time.Hour))
	if r.Survived {
		t.Fatal("2-min battery should die during the 230 s save")
	}
	if r.CrashedAt < 100*time.Second || r.CrashedAt > 230*time.Second {
		t.Errorf("crash at %v, want mid-save", r.CrashedAt)
	}
}

func TestSmallPUPSNeedsPowerReduction(t *testing.T) {
	// Half-power UPS cannot source the unthrottled load: baseline
	// crashes instantly; deep throttling with a T-state fits.
	peak := env().PeakPower()
	w := workload.Specjbb()
	base := mustSim(t, scn(cost.SmallPUPS(peak), technique.Baseline{}, w, time.Minute))
	if base.Survived {
		t.Fatal("baseline should exceed the half-power cap")
	}
	deepest := len(env().Server.PStates) - 1
	thr := mustSim(t, scn(cost.SmallPUPS(peak), technique.Throttling{PState: deepest, TState: 2}, w, time.Minute))
	if !thr.Survived {
		t.Fatalf("deep throttle + T-state should fit under the cap (peak %v, cap %v)",
			thr.PeakUPSDraw, peak/2)
	}
}

func TestDGSmallPUPSZeroDowntimeViaSleepL(t *testing.T) {
	// Paper: DG-SmallPUPS rides the DG ramp with Sleep-L (brief
	// unavailability) then the DG carries full service. Downtime is the
	// ramp + resume only.
	peak := env().PeakPower()
	w := workload.Specjbb()
	r := mustSim(t, scn(cost.DGSmallPUPS(peak), technique.Sleep{LowPower: true}, w, 30*time.Minute))
	if !r.Survived {
		t.Fatalf("Sleep-L behind half-power UPS crashed (peak UPS draw %v, cap %v)",
			r.PeakUPSDraw, peak/2)
	}
	if r.Downtime > 4*time.Minute {
		t.Errorf("downtime = %v, want < DG ramp + resume", r.Downtime)
	}
	// Most of the 30-minute window runs at full service on the DG.
	if r.Perf < 0.85 {
		t.Errorf("perf = %v", r.Perf)
	}
}

func TestMigrationOnLargeEUPS(t *testing.T) {
	peak := env().PeakPower()
	w := workload.Specjbb()
	r := mustSim(t, scn(cost.LargeEUPS(peak), technique.Migration{}, w, 45*time.Minute))
	if !r.Survived {
		t.Fatalf("migration crashed at %v", r.CrashedAt)
	}
	// Serving throughout: downtime only the stop-and-copy pauses.
	if r.Downtime > 15*time.Second {
		t.Errorf("downtime = %v", r.Downtime)
	}
	// Perf blends migration (0.9) and consolidated (~0.45) phases.
	if r.Perf < 0.4 || r.Perf > 0.75 {
		t.Errorf("perf = %v", r.Perf)
	}
}

func TestThrottleThenSleepStretchesSmallBattery(t *testing.T) {
	// Throttle+Sleep-L on the plain NoDG (2-min) battery: serving even a
	// sliver of a 30-min outage and sleeping the rest must survive,
	// because sleeping load is ~2% of rated power and Peukert stretches
	// the runtime enormously.
	peak := env().PeakPower()
	w := workload.Specjbb()
	deepest := len(env().Server.PStates) - 1
	tech := technique.ThrottleThenSave{PState: deepest, Save: SaveSleepKind(), ActiveFraction: 0.02}
	r := mustSim(t, scn(cost.NoDG(peak), tech, w, 30*time.Minute))
	if !r.Survived {
		t.Fatalf("crashed at %v (remaining %v)", r.CrashedAt, r.UPSRemaining)
	}
	if r.Perf <= 0 {
		t.Errorf("perf = %v, want > 0 from the active sliver", r.Perf)
	}
}

// SaveSleepKind avoids importing the constant directly in the test body
// (keeps the test readable).
func SaveSleepKind() technique.SaveKind { return technique.SaveSleep }

func TestScenarioValidate(t *testing.T) {
	peak := env().PeakPower()
	good := scn(cost.MaxPerf(peak), technique.Baseline{}, workload.Specjbb(), time.Minute)
	if err := good.Validate(); err != nil {
		t.Fatalf("good scenario invalid: %v", err)
	}
	bad := good
	bad.Technique = nil
	if bad.Validate() == nil {
		t.Error("nil technique should fail")
	}
	bad = good
	bad.Outage = 0
	if bad.Validate() == nil {
		t.Error("zero outage should fail")
	}
	bad = good
	bad.Env.Servers = 0
	if bad.Validate() == nil {
		t.Error("bad env should fail")
	}
	if _, err := Simulate(bad); err == nil {
		t.Error("Simulate should surface validation errors")
	}
}

func TestTracesRecorded(t *testing.T) {
	peak := env().PeakPower()
	r := mustSim(t, scn(cost.LargeEUPS(peak), technique.Migration{}, workload.Specjbb(), time.Hour))
	if r.PerfTrace == nil || r.PowerTrace == nil {
		t.Fatal("traces missing")
	}
	if r.PowerTrace.Integrate(0, time.Hour) <= 0 {
		t.Error("power trace empty")
	}
	if got := float64(r.PeakBackupDraw); got <= 0 {
		t.Error("peak backup draw missing")
	}
	if r.UPSEnergy <= 0 {
		t.Error("UPS energy missing")
	}
}

func TestSpecCPUDowntimeSpread(t *testing.T) {
	peak := env().PeakPower()
	r := mustSim(t, scn(cost.MinCost(peak), technique.Baseline{}, workload.SpecCPU(), 30*time.Second))
	if r.DowntimeMax-r.DowntimeMin != 2*time.Hour {
		t.Errorf("spread = %v, want 2h recompute range", r.DowntimeMax-r.DowntimeMin)
	}
	if r.Downtime != (r.DowntimeMin+r.DowntimeMax)/2 {
		t.Error("downtime should be the midpoint")
	}
}
