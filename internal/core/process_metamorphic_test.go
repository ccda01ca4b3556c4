package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"backuppower/internal/cost"
	"backuppower/internal/outage"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// The metamorphic suite: each property runs metamorphicCases seeded
// cases (rand.NewSource(case index)), so a failure names its case and
// replays exactly.
const metamorphicCases = 250

// scalableKinds are the distribution kinds with a free mean — the ones
// the antitone properties can perturb (empirical's mean is fixed data).
var scalableKinds = []string{outage.KindFixed, outage.KindExponential, outage.KindWeibull}

func randDist(rng *rand.Rand, kinds []string, arrival bool) outage.Dist {
	d := outage.Dist{Kind: kinds[rng.Intn(len(kinds))]}
	if d.Kind == outage.KindEmpirical {
		return d
	}
	if d.Kind == outage.KindWeibull {
		d.Shape = []float64{0.5, 0.8, 1, 1.5, 2, 3}[rng.Intn(6)]
	}
	if arrival {
		d.Mean = time.Duration(300+rng.Intn(5701)) * time.Hour
	} else {
		d.Mean = time.Duration(1+rng.Intn(480)) * time.Minute
	}
	return d
}

func randProcess(rng *rand.Rand, arrivalKinds, durationKinds []string) outage.Process {
	return outage.Process{
		Seed:        rng.Int63(),
		Draws:       1 + rng.Intn(8),
		Arrival:     randDist(rng, arrivalKinds, true),
		Duration:    randDist(rng, durationKinds, false),
		Correlation: []float64{0, 0, 0.25, 0.5}[rng.Intn(4)],
	}
}

// antitoneEnv picks the per-case scenario from baseline-technique
// configurations whose per-event downtime is monotone in the event
// duration (a longer outage never repairs itself).
func antitoneEnv(f *Framework, rng *rand.Rand) (cost.Backup, workload.Spec) {
	peak := f.Env.PeakPower()
	cfgs := []cost.Backup{cost.NoDG(peak), cost.MaxPerf(peak), cost.SmallPUPS(peak), cost.LargeEUPS(peak)}
	ws := []workload.Spec{workload.Specjbb(), workload.Memcached()}
	return cfgs[rng.Intn(len(cfgs))], ws[rng.Intn(len(ws))]
}

// TestMetamorphicAvailabilityAntitoneInDurationMean: growing the mean
// outage duration (same seed, same uniforms) maps every drawn duration
// pointwise through a larger quantile, so availability cannot improve.
func TestMetamorphicAvailabilityAntitoneInDurationMean(t *testing.T) {
	f := New(8)
	for c := 0; c < metamorphicCases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		p := randProcess(rng, append(scalableKinds, outage.KindEmpirical), scalableKinds)
		grown := p
		grown.Duration.Mean = time.Duration(float64(p.Duration.Mean) * (1.5 + 2*rng.Float64()))

		cfg, w := antitoneEnv(f, rng)
		tech := technique.Baseline{}
		base, err := f.EvaluateProcessCtx(context.Background(), cfg, tech, w, p)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		more, err := f.EvaluateProcessCtx(context.Background(), cfg, tech, w, grown)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if more.Availability > base.Availability {
			t.Fatalf("case %d: availability rose %v -> %v when duration mean grew %v -> %v (%s, %s)",
				c, base.Availability, more.Availability, p.Duration.Mean, grown.Duration.Mean, cfg.Name, w.Name)
		}
		if more.ExpectedDowntime < base.ExpectedDowntime {
			t.Fatalf("case %d: expected downtime fell %v -> %v under a larger duration mean",
				c, base.ExpectedDowntime, more.ExpectedDowntime)
		}
	}
}

// TestMetamorphicAvailabilityAntitoneInArrivalRate: shrinking the mean
// inter-arrival gap (a higher outage rate) makes every renewal time
// pointwise earlier — the trace gains events and keeps every existing
// duration — so availability cannot improve.
func TestMetamorphicAvailabilityAntitoneInArrivalRate(t *testing.T) {
	f := New(8)
	for c := 0; c < metamorphicCases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		p := randProcess(rng, scalableKinds, append(scalableKinds, outage.KindEmpirical))
		faster := p
		faster.Arrival.Mean = time.Duration(float64(p.Arrival.Mean) / (1.5 + 2*rng.Float64()))

		cfg, w := antitoneEnv(f, rng)
		tech := technique.Baseline{}
		base, err := f.EvaluateProcessCtx(context.Background(), cfg, tech, w, p)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		more, err := f.EvaluateProcessCtx(context.Background(), cfg, tech, w, faster)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if more.Availability > base.Availability {
			t.Fatalf("case %d: availability rose %v -> %v when arrival mean shrank %v -> %v (%s, %s)",
				c, base.Availability, more.Availability, p.Arrival.Mean, faster.Arrival.Mean, cfg.Name, w.Name)
		}
		if more.Events < base.Events {
			t.Fatalf("case %d: events fell %d -> %d under a faster arrival process",
				c, base.Events, more.Events)
		}
	}
}

// TestMetamorphicDegenerateMatchesScalar: a single-draw process with a
// fixed arrival in (Year/2, Year] and a fixed duration draws exactly one
// event of exactly that duration, and its ProcessResult must reproduce
// the scalar Evaluate bit for bit — across random technique variants,
// Table 3 configurations, and workloads.
func TestMetamorphicDegenerateMatchesScalar(t *testing.T) {
	f := New(8)
	peak := f.Env.PeakPower()
	variants := f.TechVariants()
	configs := cost.Table3(peak)
	workloads := workload.All()
	for c := 0; c < metamorphicCases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		tech := variants[rng.Intn(len(variants))].Tech
		cfg := configs[rng.Intn(len(configs))]
		w := workloads[rng.Intn(len(workloads))]
		dur := time.Duration(1+rng.Int63n(int64(720*time.Hour/time.Second))) * time.Second

		p := outage.Process{
			Seed:     rng.Int63(),
			Draws:    1,
			Arrival:  outage.Dist{Kind: outage.KindFixed, Mean: 5000 * time.Hour},
			Duration: outage.Dist{Kind: outage.KindFixed, Mean: dur},
		}
		pr, err := f.EvaluateProcessCtx(context.Background(), cfg, tech, w, p)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		res, err := f.Evaluate(cfg, tech, w, dur)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if pr.Events != 1 {
			t.Fatalf("case %d: degenerate process drew %d events", c, pr.Events)
		}
		if math.Float64bits(pr.Perf) != math.Float64bits(res.Perf) {
			t.Fatalf("case %d (%s/%s/%s/%v): perf %v != scalar %v",
				c, tech.Name(), cfg.Name, w.Name, dur, pr.Perf, res.Perf)
		}
		if pr.ExpectedDowntime != res.Downtime || pr.DowntimeP50 != res.Downtime ||
			pr.DowntimeP95 != res.Downtime || pr.DowntimeP99 != res.Downtime || pr.DowntimeMax != res.Downtime {
			t.Fatalf("case %d: downtime fold %v/%v/%v/%v/%v != scalar %v",
				c, pr.ExpectedDowntime, pr.DowntimeP50, pr.DowntimeP95, pr.DowntimeP99, pr.DowntimeMax, res.Downtime)
		}
		if math.Float64bits(pr.Cost) != math.Float64bits(res.Cost) {
			t.Fatalf("case %d: cost %v != scalar %v", c, pr.Cost, res.Cost)
		}
		wantSurvival := 0.0
		if res.Survived {
			wantSurvival = 1.0
		}
		if pr.SurvivalRate != wantSurvival {
			t.Fatalf("case %d: survival rate %v != scalar survived=%v", c, pr.SurvivalRate, res.Survived)
		}
	}
}

// TestMetamorphicPercentilesOrdered: for any valid process, the
// per-draw downtime percentiles are ordered p50 <= p95 <= p99 <= max,
// and every rate lands in [0, 1].
func TestMetamorphicPercentilesOrdered(t *testing.T) {
	f := New(8)
	all := append(scalableKinds, outage.KindEmpirical)
	for c := 0; c < metamorphicCases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		p := randProcess(rng, all, all)
		p.Draws = 1 + rng.Intn(16)
		cfg, w := antitoneEnv(f, rng)
		pr, err := f.EvaluateProcessCtx(context.Background(), cfg, technique.Baseline{}, w, p)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if !(pr.DowntimeP50 <= pr.DowntimeP95 && pr.DowntimeP95 <= pr.DowntimeP99 && pr.DowntimeP99 <= pr.DowntimeMax) {
			t.Fatalf("case %d: percentiles unordered: p50=%v p95=%v p99=%v max=%v",
				c, pr.DowntimeP50, pr.DowntimeP95, pr.DowntimeP99, pr.DowntimeMax)
		}
		if pr.ExpectedDowntime > pr.DowntimeMax {
			t.Fatalf("case %d: mean downtime %v above max %v", c, pr.ExpectedDowntime, pr.DowntimeMax)
		}
		for _, v := range []float64{pr.Availability, pr.Perf, pr.SurvivalRate} {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("case %d: rate %v outside [0, 1] in %+v", c, v, pr)
			}
		}
		if pr.EnergyShortfallWh < 0 {
			t.Fatalf("case %d: negative energy shortfall %v", c, pr.EnergyShortfallWh)
		}
	}
}
