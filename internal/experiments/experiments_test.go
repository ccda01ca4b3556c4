package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 36 {
		t.Fatalf("registry has %d experiments, want 36", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// Every paper table and figure is present.
	for _, id := range []string{"fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"table1", "table2", "table3", "table4", "table5", "table6", "table8"} {
		if !seen[id] {
			t.Errorf("missing %s", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig10")
	if !ok || e.ID != "fig10" {
		t.Errorf("ByID fig10 = %+v %v", e.ID, ok)
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should miss")
	}
}

// Static experiments run fast; check each renders plausible content.
func TestStaticExperimentsRender(t *testing.T) {
	checks := map[string][]string{
		"fig1":               {"none", "17%", "duration"},
		"fig3":               {"25%", "60.0m", "666.7 Wh"},
		"table1":             {"DGPowerCost", "$83.3/KW/year", "FreeRunTime"},
		"table2":             {"1.00 MW", "10.00 MW", "42.0m"},
		"table3":             {"MaxPerf", "SmallP-LargeEUPS", "0.38"},
		"table4":             {"MinCost", "Server/App crash", "Migrate back"},
		"table5":             {"Throttling", "Sleep", "Hibernation"},
		"table6":             {"Sleep-L", "Migration+Sleep-L"},
		"table8":             {"Hibernate", "230s", "157s"},
		"fig10":              {"profitable", "83.3", "cross-over"},
		"ablation-peukert":   {"Peukert", "stretch"},
		"ablation-proactive": {"interval", "residue"},
		"ablation-dgstartup": {"startup", "bridge"},
		"ablation-liion":     {"li-ion", "premium"},
	}
	for id, wants := range checks {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("missing %s", id)
			continue
		}
		out := e.Run(context.Background()).String()
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", id, w, out)
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	tb := Fig5(context.Background())
	// 6 configs x 5 durations.
	if len(tb.Rows) != 30 {
		t.Fatalf("fig5 rows = %d, want 36", len(tb.Rows))
	}
	out := tb.String()
	for _, want := range []string{"MaxPerf", "MinCost", "LargeEUPS", "NoDG", "DG-SmallPUPS", "SmallP-LargeEUPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 missing config %s", want)
		}
	}
	// MaxPerf rows must show perf 1.00 and 0 downtime everywhere.
	for _, row := range tb.Rows {
		if row[0] == "MaxPerf" {
			if row[4] != "1.00" || row[5] != "0" {
				t.Errorf("MaxPerf row degraded: %v", row)
			}
		}
	}
}

func TestFig6Headlines(t *testing.T) {
	// Run the underlying evaluation once and assert the §6.2 insights.
	f := core.New(DefaultServers)
	w := workload.Specjbb()

	short := map[string]core.TechniqueSummary{}
	for _, s := range f.EvaluateTechniques(w, 30*time.Second) {
		short[s.Technique] = s
	}
	long := map[string]core.TechniqueSummary{}
	for _, s := range f.EvaluateTechniques(w, 2*time.Hour) {
		long[s.Technique] = s
	}

	// Short outages: throttling achieves full-ish perf cheaply, zero
	// downtime; hibernation suffers ~387s downtime.
	thr := short["Throttling"]
	if !thr.Feasible || thr.Downtime.Max != 0 {
		t.Errorf("short throttling: %+v", thr)
	}
	if thr.Cost.Min > 0.45 {
		t.Errorf("short throttling min cost = %v", thr.Cost.Min)
	}
	hib := short["Hibernate"]
	if !hib.Feasible || hib.Downtime.Min < 5*time.Minute {
		t.Errorf("short hibernate should be a bad idea: %+v", hib)
	}
	slp := short["Sleep-L"]
	if !slp.Feasible || slp.Downtime.Min > time.Minute {
		t.Errorf("short sleep-L: %+v", slp)
	}

	// Long outages: throttling cost rises sharply; Throttle+Sleep-L stays
	// cheap (paper: ~20% of MaxPerf).
	thrL := long["Throttling"]
	hybL := long["Throttle+Sleep-L"]
	if !thrL.Feasible || !hybL.Feasible {
		t.Fatalf("long-outage feasibility: thr=%v hyb=%v", thrL.Feasible, hybL.Feasible)
	}
	if thrL.Cost.Min < 0.4 {
		t.Errorf("2h throttling min cost = %v, want >= ~0.5", thrL.Cost.Min)
	}
	if hybL.Cost.Min > 0.28 {
		t.Errorf("2h Throttle+Sleep-L min cost = %v, want ~0.2-0.25", hybL.Cost.Min)
	}
	if hybL.Cost.Min >= thrL.Cost.Min {
		t.Errorf("hybrid %v should undercut throttling %v at 2h", hybL.Cost.Min, thrL.Cost.Min)
	}
}

func TestFig7MemcachedHeadline(t *testing.T) {
	f := core.New(DefaultServers)
	w := workload.Memcached()
	sums := map[string]core.TechniqueSummary{}
	for _, s := range f.EvaluateTechniques(w, 30*time.Second) {
		sums[s.Technique] = s
	}
	// Hibernation downtime dwarfs everything else for memcached.
	hib := sums["Hibernate"]
	if !hib.Feasible || hib.Downtime.Min < 15*time.Minute {
		t.Errorf("memcached hibernate: %+v", hib)
	}
	// Throttling perf beats SPECjbb's at the deep end.
	jbb := map[string]core.TechniqueSummary{}
	for _, s := range core.New(DefaultServers).EvaluateTechniques(workload.Specjbb(), 30*time.Second) {
		jbb[s.Technique] = s
	}
	if sums["Throttling"].Perf.Min <= jbb["Throttling"].Perf.Min {
		t.Errorf("memcached deep-throttle perf %v should beat specjbb %v",
			sums["Throttling"].Perf.Min, jbb["Throttling"].Perf.Min)
	}
}

func TestFig8And9Render(t *testing.T) {
	for _, fn := range []func() Experiment{
		func() Experiment { e, _ := ByID("fig8"); return e },
		func() Experiment { e, _ := ByID("fig9"); return e },
	} {
		e := fn()
		out := e.Run(context.Background()).String()
		if !strings.Contains(out, "Throttling") || !strings.Contains(out, "Sleep") {
			t.Errorf("%s output incomplete:\n%s", e.ID, out)
		}
	}
}

func TestAblationConsolidationRuns(t *testing.T) {
	out := AblationConsolidation(context.Background()).String()
	if !strings.Contains(out, "2") || !strings.Contains(out, "4") {
		t.Errorf("consolidation ablation incomplete:\n%s", out)
	}
}
