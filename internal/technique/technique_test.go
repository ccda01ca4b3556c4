package technique

import (
	"testing"
	"time"

	"backuppower/internal/units"
	"backuppower/internal/workload"
)

func env() Env { return DefaultEnv(16) }

func TestDefaultEnvValid(t *testing.T) {
	if err := env().Validate(); err != nil {
		t.Fatalf("default env invalid: %v", err)
	}
	bad := env()
	bad.Servers = 0
	if bad.Validate() == nil {
		t.Error("zero servers should fail")
	}
}

func TestEnvPowers(t *testing.T) {
	e := env()
	if got := e.PeakPower(); got != 16*250 {
		t.Errorf("peak = %v", got)
	}
	np := e.NormalPower(workload.Specjbb())
	if np <= 16*80 || np > 16*250 {
		t.Errorf("normal power = %v", np)
	}
}

// catalog is the canonical technique instances evaluated in Section 6, in
// presentation order. Throttling appears at its lightest and deepest
// DVFS states — the (min,max) bars of Figures 6-9.
func catalog(env Env) []Technique {
	deepest := len(env.Server.PStates) - 1
	return []Technique{
		Baseline{},
		Throttling{PState: 1},
		Throttling{PState: deepest},
		Migration{},
		Migration{Proactive: true},
		Sleep{},
		Sleep{LowPower: true},
		Hibernate{},
		Hibernate{LowPower: true},
		Hibernate{Proactive: true},
		ThrottleThenSave{PState: deepest, Save: SaveSleep},
		ThrottleThenSave{PState: deepest, Save: SaveHibernate},
		MigrationThenSleep{},
	}
}

func TestAllCatalogPlansValid(t *testing.T) {
	e := env()
	for _, w := range workload.All() {
		for _, tech := range catalog(e) {
			for _, outage := range []time.Duration{30 * time.Second, 5 * time.Minute, 2 * time.Hour} {
				p := tech.Plan(e, w, outage)
				if err := p.Validate(); err != nil {
					t.Errorf("%s/%s/%v: %v", tech.Name(), w.Name, outage, err)
				}
				if p.PeakPower() > e.PeakPower() {
					t.Errorf("%s/%s: plan peak %v exceeds datacenter peak %v",
						tech.Name(), w.Name, p.PeakPower(), e.PeakPower())
				}
			}
		}
	}
}

func TestBaselinePlan(t *testing.T) {
	p := Baseline{}.Plan(env(), workload.Specjbb(), time.Hour)
	if len(p.Phases) != 1 || !p.Phases[0].OpenEnded {
		t.Fatalf("baseline = %+v", p)
	}
	if p.Phases[0].Perf != 1 || !p.Phases[0].Available {
		t.Error("baseline should be full service")
	}
	if p.RestoreDowntime != 0 {
		t.Error("baseline has no restore downtime")
	}
}

func TestThrottlingReducesPowerAndPerf(t *testing.T) {
	e := env()
	w := workload.Specjbb()
	base := Baseline{}.Plan(e, w, time.Hour)
	deep := Throttling{PState: 6}.Plan(e, w, time.Hour)
	if deep.PeakPower() >= base.PeakPower() {
		t.Errorf("deep throttle %v should cut power vs %v", deep.PeakPower(), base.PeakPower())
	}
	perf := deep.Phases[0].Perf
	if perf <= 0.3 || perf >= 0.7 {
		t.Errorf("deep throttle perf = %v, want mid-range", perf)
	}
	// T-state stacking cuts further.
	tt := Throttling{PState: 6, TState: 4}.Plan(e, w, time.Hour)
	if tt.PeakPower() >= deep.PeakPower() {
		t.Errorf("T-state should cut power further")
	}
	if tt.Phases[0].Perf >= perf {
		t.Errorf("T-state should cut perf further")
	}
	// Out-of-range P-state clamps rather than panics.
	_ = Throttling{PState: 99}.Plan(e, w, time.Hour)
	_ = Throttling{PState: -1}.Plan(e, w, time.Hour)
}

func TestThrottlingEngagesInstantly(t *testing.T) {
	e := env()
	if e.Server.ThrottleLatency > e.Server.RestartTime {
		t.Error("nonsense")
	}
	// Table 5: tens of microseconds, inside the 30 ms ride-through.
	if e.Server.ThrottleLatency > 30*time.Millisecond {
		t.Errorf("throttle latency %v exceeds ride-through", e.Server.ThrottleLatency)
	}
}

func TestMigrationPlanShape(t *testing.T) {
	e := env()
	w := workload.Specjbb()
	p := Migration{}.Plan(e, w, time.Hour)
	if len(p.Phases) != 2 {
		t.Fatalf("phases = %d", len(p.Phases))
	}
	mig, cons := p.Phases[0], p.Phases[1]
	if mig.Dur < 8*time.Minute || mig.Dur > 12*time.Minute {
		t.Errorf("specjbb migration phase = %v, want ~10m", mig.Dur)
	}
	// Consolidation halves the active fleet: aggregate power well below
	// the migration phase.
	if cons.Power >= mig.Power {
		t.Errorf("consolidated %v should undercut migrating %v", cons.Power, mig.Power)
	}
	if cons.Perf <= 0.3 || cons.Perf > 0.6 {
		t.Errorf("consolidated perf = %v", cons.Perf)
	}
	// Migrate-back leaves a degraded window, not downtime.
	if p.RestoreDegradedDur <= 0 || p.RestoreDegradedPerf != cons.Perf {
		t.Errorf("restore degraded = %v@%v", p.RestoreDegradedDur, p.RestoreDegradedPerf)
	}
	// Stop-and-copy pauses are brief.
	if p.RestoreDowntime > 15*time.Second {
		t.Errorf("restore downtime = %v", p.RestoreDowntime)
	}
}

func TestProactiveMigrationFaster(t *testing.T) {
	e := env()
	w := workload.Specjbb()
	live := Migration{}.Plan(e, w, time.Hour)
	pro := Migration{Proactive: true}.Plan(e, w, time.Hour)
	if pro.Phases[0].Dur >= live.Phases[0].Dur {
		t.Errorf("proactive %v should beat live %v", pro.Phases[0].Dur, live.Phases[0].Dur)
	}
}

func TestMigrationThrottleDeepCutsPeak(t *testing.T) {
	e := env()
	w := workload.Specjbb()
	plain := Migration{}.Plan(e, w, time.Hour)
	capped := Migration{ThrottleDeep: true}.Plan(e, w, time.Hour)
	if capped.PeakPower() >= plain.PeakPower() {
		t.Errorf("throttled migration peak %v should undercut %v",
			capped.PeakPower(), plain.PeakPower())
	}
}

func TestSleepPlan(t *testing.T) {
	e := env()
	w := workload.Specjbb()
	p := Sleep{}.Plan(e, w, 30*time.Second)
	if p.Phases[0].Dur != 6*time.Second {
		t.Errorf("sleep transition = %v, want 6s (Table 8)", p.Phases[0].Dur)
	}
	if p.RestoreDowntime != 8*time.Second {
		t.Errorf("sleep resume = %v, want 8s", p.RestoreDowntime)
	}
	// Sleeping power ~5 W/server.
	slp := p.Phases[1].Power
	if slp < 50 || slp > 130 { // 16 servers
		t.Errorf("fleet sleep power = %v", slp)
	}
	// NOT state-safe: battery death in S3 loses DRAM.
	if p.Phases[1].StateSafe {
		t.Error("sleep must not be state-safe")
	}
}

func TestSleepLCalibration(t *testing.T) {
	e := env()
	w := workload.Specjbb()
	p := Sleep{LowPower: true}.Plan(e, w, 30*time.Second)
	// Table 8: Sleep-L save 8 s at half power.
	if p.Phases[0].Dur < 7*time.Second || p.Phases[0].Dur > 9*time.Second {
		t.Errorf("sleep-L transition = %v, want ~8s", p.Phases[0].Dur)
	}
	full := Sleep{}.Plan(e, w, 30*time.Second)
	ratio := float64(p.Phases[0].Power) / float64(full.Phases[0].Power)
	if ratio < 0.4 || ratio > 0.65 {
		t.Errorf("sleep-L save power ratio = %v, want ~0.5", ratio)
	}
}

func TestHibernateTable8Calibration(t *testing.T) {
	e := env()
	w := workload.Specjbb()
	rows := Table8(e, w)
	want := map[string]struct{ save, resume float64 }{
		"Sleep":               {6, 8},
		"Hibernate":           {230, 157},
		"Proactive Hibernate": {179, 157},
		"Sleep-L":             {8, 8},
		"Hibernate-L":         {385, 175},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Technique]
		if !ok {
			t.Errorf("unexpected row %q", r.Technique)
			continue
		}
		if !units.AlmostEqual(r.SaveTime.Seconds(), w.save, 0.12) {
			t.Errorf("%s save = %v, want ~%vs", r.Technique, r.SaveTime, w.save)
		}
		if !units.AlmostEqual(r.Resume.Seconds(), w.resume, 0.12) {
			t.Errorf("%s resume = %v, want ~%vs", r.Technique, r.Resume, w.resume)
		}
		if r.PeakNorm <= 0 || r.PeakNorm > 1 {
			t.Errorf("%s norm power = %v", r.Technique, r.PeakNorm)
		}
	}
	// The -L variants draw roughly half the save power.
	byName := map[string]SaveResume{}
	for _, r := range rows {
		byName[r.Technique] = r
	}
	if r := byName["Hibernate-L"].PeakNorm / byName["Hibernate"].PeakNorm; r < 0.4 || r > 0.65 {
		t.Errorf("hibernate-L power ratio = %v", r)
	}
}

func TestHibernateStateSafeAfterSave(t *testing.T) {
	p := Hibernate{}.Plan(env(), workload.Specjbb(), time.Hour)
	if p.Phases[0].StateSafe {
		t.Error("saving phase is not yet safe")
	}
	if !p.Phases[1].StateSafe {
		t.Error("hibernated phase must be safe")
	}
	if p.Phases[1].Power != 0 {
		t.Errorf("hibernated power = %v", p.Phases[1].Power)
	}
}

func TestMemcachedHibernateSlow(t *testing.T) {
	// §6.2: memcached hibernation total (save+resume) far exceeds its
	// crash recovery — losing state is cheaper than preserving it.
	e := env()
	w := workload.Memcached()
	h := Hibernate{}
	total := h.SaveTime(e, w) + h.ResumeTime(e, w)
	crashLo, _ := CrashRecovery(e, w)
	if total <= crashLo {
		t.Errorf("memcached hibernate %v should exceed crash recovery %v", total, crashLo)
	}
	if total < 15*time.Minute {
		t.Errorf("memcached hibernate = %v, want ~1000s+", total)
	}
}

func TestWebSearchCrashWorseThanHibernate(t *testing.T) {
	// §6.2: for web-search, losing memory (600 s) is WORSE than
	// hibernating (~400 s) — opposite of memcached.
	e := env()
	w := workload.WebSearch()
	h := Hibernate{}
	hibTotal := h.SaveTime(e, w) + h.ResumeTime(e, w)
	crashLo, _ := CrashRecovery(e, w)
	if hibTotal >= crashLo {
		t.Errorf("web-search hibernate %v should undercut crash %v", hibTotal, crashLo)
	}
	if !units.AlmostEqual(hibTotal.Seconds(), 400, 0.15) {
		t.Errorf("web-search hibernate total = %v, want ~400s", hibTotal)
	}
	if !units.AlmostEqual(crashLo.Seconds(), 600, 0.15) {
		t.Errorf("web-search crash recovery = %v, want ~570-600s", crashLo)
	}
}

func TestCrashRecoveryCalibration(t *testing.T) {
	e := env()
	// SPECjbb: ~370 s recovery => 400 s downtime with a 30 s outage.
	lo, hi := CrashRecovery(e, workload.Specjbb())
	if lo != hi {
		t.Errorf("specjbb recovery should have no spread: %v vs %v", lo, hi)
	}
	if !units.AlmostEqual(lo.Seconds(), 370, 0.1) {
		t.Errorf("specjbb recovery = %v, want ~370s", lo)
	}
	// Memcached: ~450 s recovery => 480 s with 30 s outage.
	mlo, _ := CrashRecovery(e, workload.Memcached())
	if !units.AlmostEqual(mlo.Seconds(), 450, 0.1) {
		t.Errorf("memcached recovery = %v, want ~450s", mlo)
	}
	// SpecCPU: recompute spread dominates.
	slo, shi := CrashRecovery(e, workload.SpecCPU())
	if shi-slo != 2*time.Hour {
		t.Errorf("speccpu spread = %v", shi-slo)
	}
}

func TestThrottleThenSavePhases(t *testing.T) {
	e := env()
	w := workload.Specjbb()
	outage := 30 * time.Minute
	p := ThrottleThenSave{PState: 6, Save: SaveSleep, ActiveFraction: 0.5}.Plan(e, w, outage)
	if len(p.Phases) != 3 {
		t.Fatalf("phases = %d", len(p.Phases))
	}
	if p.Phases[0].Dur != 15*time.Minute {
		t.Errorf("active = %v, want 15m", p.Phases[0].Dur)
	}
	if !p.Phases[0].Available || p.Phases[0].Perf <= 0 {
		t.Error("throttled phase should serve")
	}
	if p.Phases[2].Power >= p.Phases[0].Power/10 {
		t.Errorf("sleeping power %v should be tiny vs %v", p.Phases[2].Power, p.Phases[0].Power)
	}
	// Invalid fraction defaults to 0.5.
	d := ThrottleThenSave{PState: 6, Save: SaveSleep}.Plan(e, w, outage)
	if d.Phases[0].Dur != 15*time.Minute {
		t.Errorf("default fraction phase = %v", d.Phases[0].Dur)
	}
	// Hibernate tail is state-safe at the end.
	hp := ThrottleThenSave{PState: 6, Save: SaveHibernate, ActiveFraction: 0.3}.Plan(e, w, outage)
	last := hp.Phases[len(hp.Phases)-1]
	if !last.StateSafe {
		t.Error("hibernate tail should be safe")
	}
}

func TestMigrationThenSleepPhases(t *testing.T) {
	e := env()
	w := workload.Memcached()
	p := MigrationThenSleep{ActiveFraction: 0.5}.Plan(e, w, 2*time.Hour)
	if len(p.Phases) != 4 {
		t.Fatalf("phases = %d", len(p.Phases))
	}
	// Final sleeping power covers only the surviving half.
	full := Sleep{}.Plan(e, w, time.Hour).Phases[1].Power
	if p.Phases[3].Power >= full {
		t.Errorf("survivor sleep power %v should undercut fleet %v", p.Phases[3].Power, full)
	}
	if p.RestoreDegradedDur <= 0 {
		t.Error("migrate-back degraded window expected")
	}
}

func TestTable4Table6Static(t *testing.T) {
	if rows := Table4(); len(rows) != 8 {
		t.Errorf("Table4 rows = %d, want 8", len(rows))
	}
	if rows := Table6(); len(rows) != 5 {
		t.Errorf("Table6 rows = %d, want 5", len(rows))
	}
}

func TestTable5Impact(t *testing.T) {
	rows := Table5(env(), workload.Specjbb())
	if len(rows) != 6 {
		t.Fatalf("Table5 rows = %d", len(rows))
	}
	byName := map[string]Impact{}
	for _, r := range rows {
		byName[r.Technique] = r
	}
	// Throttling: tens of microseconds.
	if byName["Throttling"].TimeToEffect > time.Millisecond {
		t.Errorf("throttle effect = %v", byName["Throttling"].TimeToEffect)
	}
	// Migration: few minutes; proactive faster.
	if byName["Migration"].TimeToEffect < 2*time.Minute {
		t.Errorf("migration effect = %v", byName["Migration"].TimeToEffect)
	}
	if byName["Proactive Migration"].TimeToEffect >= byName["Migration"].TimeToEffect {
		t.Error("proactive migration should be faster")
	}
	// Sleep ~10s; hibernation minutes; power ordering.
	if byName["Sleep"].TimeToEffect > 15*time.Second {
		t.Errorf("sleep effect = %v", byName["Sleep"].TimeToEffect)
	}
	if byName["Hibernation"].PowerAfter != 0 || byName["Proactive Hibernation"].PowerAfter != 0 {
		t.Error("hibernation post-power should be 0")
	}
	if byName["Sleep"].PowerAfter <= 0 || byName["Sleep"].PowerAfter > 10 {
		t.Errorf("sleep post-power = %v", byName["Sleep"].PowerAfter)
	}
}

func TestPlanValidateCatchesBadPlans(t *testing.T) {
	bad := Plan{Technique: "x"}
	if bad.Validate() == nil {
		t.Error("empty plan should fail")
	}
	bad = Plan{Technique: "x", Phases: []Phase{{OpenEnded: true}, {OpenEnded: true}}}
	if bad.Validate() == nil {
		t.Error("open-ended mid-plan should fail")
	}
	bad = Plan{Technique: "x", Phases: []Phase{{Dur: time.Second}}}
	if bad.Validate() == nil {
		t.Error("non-open-ended tail should fail")
	}
	bad = Plan{Technique: "x", Phases: []Phase{{OpenEnded: true, Perf: 0.5}}}
	if bad.Validate() == nil {
		t.Error("perf without availability should fail")
	}
	bad = Plan{Technique: "x", Phases: []Phase{{OpenEnded: true, Perf: 1.5, Available: true}}}
	if bad.Validate() == nil {
		t.Error("perf > 1 should fail")
	}
}
