package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"backuppower/internal/cost"
	"backuppower/internal/outage"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

func testProcess() outage.Process {
	return outage.Process{
		Seed:        42,
		Draws:       8,
		Arrival:     outage.Dist{Kind: outage.KindExponential, Mean: 2000 * time.Hour},
		Duration:    outage.Dist{Kind: outage.KindWeibull, Mean: 30 * time.Minute, Shape: 0.8},
		Correlation: 0.3,
	}
}

// TestEvaluateProcessInvalid: a bad process fails with a typed
// *InputError before any simulation work.
func TestEvaluateProcessInvalid(t *testing.T) {
	f := New(8)
	p := testProcess()
	p.Draws = 0
	_, err := f.EvaluateProcessCtx(context.Background(), cost.NoDG(f.Env.PeakPower()), technique.Baseline{}, workload.Specjbb(), p)
	var ie *InputError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InputError, got %T %v", err, err)
	}
	if ie.Field != "process" {
		t.Fatalf("want field %q, got %q", "process", ie.Field)
	}
}

// TestEvaluateProcessQuietYear: a process whose draws contain no events
// reports perfect availability and the config's bare normalized cost.
func TestEvaluateProcessQuietYear(t *testing.T) {
	f := New(8)
	peak := f.Env.PeakPower()
	p := outage.Process{
		Seed:     7,
		Draws:    4,
		Arrival:  outage.Dist{Kind: outage.KindFixed, Mean: 2 * outage.Year},
		Duration: outage.Dist{Kind: outage.KindFixed, Mean: time.Hour},
	}
	pr, err := f.EvaluateProcessCtx(context.Background(), cost.NoDG(peak), technique.Baseline{}, workload.Specjbb(), p)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Events != 0 || pr.Availability != 1 || pr.Perf != 1 || pr.SurvivalRate != 1 {
		t.Fatalf("quiet year: %+v", pr)
	}
	if pr.ExpectedDowntime != 0 || pr.DowntimeMax != 0 || pr.EnergyShortfallWh != 0 {
		t.Fatalf("quiet year has downtime: %+v", pr)
	}
	if want := cost.NoDG(peak).NormalizedCost(peak); pr.Cost != want {
		t.Fatalf("cost %v != bare normalized cost %v", pr.Cost, want)
	}
}

// TestEvaluateProcessDeterministic: the whole ProcessResult is a pure
// value — two evaluations, including across fresh frameworks (cold
// caches), compare equal field for field.
func TestEvaluateProcessDeterministic(t *testing.T) {
	p := testProcess()
	run := func(f *Framework) ProcessResult {
		pr, err := f.EvaluateProcessCtx(context.Background(), cost.NoDG(f.Env.PeakPower()), technique.Sleep{}, workload.Memcached(), p)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	f := New(8)
	first := run(f)
	if again := run(f); again != first {
		t.Fatalf("warm re-evaluation drifted:\n got %+v\nwant %+v", again, first)
	}
	if cold := run(New(8)); cold != first {
		t.Fatalf("cold-cache evaluation drifted:\n got %+v\nwant %+v", cold, first)
	}
}

// TestEvaluateProcessCancelled: a pre-cancelled context fails fast.
func TestEvaluateProcessCancelled(t *testing.T) {
	f := New(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.EvaluateProcessCtx(ctx, cost.NoDG(f.Env.PeakPower()), technique.Baseline{}, workload.Specjbb(), testProcess())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestEvaluateProcessAggregates cross-checks the fold against a by-hand
// scalar reconstruction: evaluating each drawn event with Evaluate and
// re-aggregating must land on the same numbers.
func TestEvaluateProcessAggregates(t *testing.T) {
	f := New(8)
	peak := f.Env.PeakPower()
	cfg := cost.SmallPUPS(peak)
	w := workload.Specjbb()
	tech := technique.Baseline{}
	p := testProcess()
	p.Draws = 4

	pr, err := f.EvaluateProcessCtx(context.Background(), cfg, tech, w, p)
	if err != nil {
		t.Fatal(err)
	}

	var total time.Duration
	events := 0
	for i := 0; i < p.Draws; i++ {
		for _, e := range p.Draw(i) {
			res, err := f.Evaluate(cfg, tech, w, e.Duration)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Downtime
			events++
		}
	}
	if events == 0 {
		t.Fatal("probe process drew no events; pick a denser one")
	}
	if pr.Events != events {
		t.Fatalf("events %d != %d", pr.Events, events)
	}
	if want := total / time.Duration(p.Draws); pr.ExpectedDowntime != want {
		t.Fatalf("expected downtime %v != scalar reconstruction %v", pr.ExpectedDowntime, want)
	}
}
