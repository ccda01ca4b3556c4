// Package core is the paper's evaluation framework: it composes the
// component models (battery, genset, UPS, server, workload, technique,
// cluster) to answer the questions Sections 4-6 pose —
//
//   - What does a given backup configuration cost, and what performance and
//     down time does it deliver for a workload and outage duration?
//   - What is the minimum-cost backup that lets a given technique survive a
//     given outage (the per-technique cost bars of Figures 6-9)?
//   - Which technique is best for a fixed configuration (Figure 5)?
//   - How should an online policy escalate through techniques when the
//     outage duration is unknown (Section 7)?
package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"backuppower/internal/battery"
	"backuppower/internal/cluster"
	"backuppower/internal/cost"
	"backuppower/internal/genset"
	"backuppower/internal/sweep"
	"backuppower/internal/technique"
	"backuppower/internal/units"
	"backuppower/internal/workload"
)

// Framework evaluates scenarios for one datacenter environment.
type Framework struct {
	Env technique.Env

	// Battery selects the chemistry used when sizing UPS capacity
	// (lead-acid by default; Section 7 discusses Li-ion's different
	// power/energy cost asymmetry).
	Battery battery.Technology

	// envfp memoizes the scenario cache's environment sub-fingerprint
	// (see scenarioCacheKey). The zero value is ready to use, so plain
	// Framework literals keep working.
	envfp atomic.Pointer[envFPEntry]
}

// DenseSizingGrid forces MinCostUPS back onto the dense 65-point rating
// sweep instead of the bracketed coarse-then-refine search. Both are
// deterministic; the flag exists as an escape hatch (and as the reference
// the bracket equivalence tests compare against). Set it before starting
// evaluations — it is read per sizing call without synchronization.
var DenseSizingGrid bool

// New returns a framework over the paper's default testbed scaled to n
// servers.
func New(n int) *Framework {
	return &Framework{Env: technique.DefaultEnv(n), Battery: battery.LeadAcid()}
}

// Evaluate runs a single scenario, memoized through the shared scenario
// cache: the same (Env, Workload, Backup, Technique, Outage) point is
// simulated once per process no matter how many figures ask for it. The
// returned Result carries no timeline traces — evaluation runs on the
// allocation-free aggregate path, and no aggregate caller reads traces;
// use cluster.Simulate directly for timelines (as cmd/backupsim does).
//
// Non-positive or absurd outage durations and invalid server counts are
// rejected up front with a typed *InputError wrapping ErrInvalidInput.
func (f *Framework) Evaluate(b cost.Backup, tech technique.Technique, w workload.Spec, outage time.Duration) (cluster.Result, error) {
	if err := f.validateCall(outage); err != nil {
		return cluster.Result{}, err
	}
	scn := cluster.Scenario{
		Env: f.Env, Workload: w, Backup: b, Technique: tech, Outage: outage,
	}
	if !keyable(scn) {
		return cluster.SimulateAggregate(scn)
	}
	return scenarioCache.Do(f.scenarioCacheKey(scn),
		func() (cluster.Result, error) { return cluster.SimulateAggregate(scn) })
}

// EvaluateCtx is Evaluate with cancellation: the simulation itself is
// microseconds and not interruptible, but a request whose context has
// already expired (queueing, an upstream deadline) is rejected before
// simulating, and the context error is returned as-is so callers can
// map deadline expiry distinctly from invalid input.
func (f *Framework) EvaluateCtx(ctx context.Context, b cost.Backup, tech technique.Technique, w workload.Spec, outage time.Duration) (cluster.Result, error) {
	if err := ctx.Err(); err != nil {
		return cluster.Result{}, err
	}
	return f.Evaluate(b, tech, w, outage)
}

// OperatingPoint is a technique paired with the cheapest backup that lets
// it survive an outage, and the resulting metrics.
type OperatingPoint struct {
	Technique string
	Backup    cost.Backup
	Result    cluster.Result
	NormCost  float64
}

// MinCostUPS finds the cheapest UPS-only backup (no DG — Section 6.2
// restricts the technique study to DG-less configs) under which the
// technique survives the entire outage without state loss. The search
// exploits the Peukert trade: a larger power rating costs more electronics
// but stretches runtime superlinearly, so the cost curve over the rating is
// swept numerically.
func (f *Framework) MinCostUPS(tech technique.Technique, w workload.Spec, outage time.Duration) (OperatingPoint, bool) {
	op, ok, _ := f.MinCostUPSCtx(context.Background(), tech, w, outage)
	return op, ok
}

// ratingCandidate is one point of the UPS-rating sweep.
type ratingCandidate struct {
	backup cost.Backup
	cost   float64
	ok     bool
}

// MinCostUPSCtx is MinCostUPS with cancellation: the rating sweep fans out
// through the shared sweep engine and a context cancellation aborts it.
// The returned error is non-nil only on cancellation or invalid input
// (a typed *InputError wrapping ErrInvalidInput).
func (f *Framework) MinCostUPSCtx(ctx context.Context, tech technique.Technique, w workload.Spec, outage time.Duration) (OperatingPoint, bool, error) {
	op, ok, _, err := f.minCostUPSLattice(ctx, tech, w, outage, -1)
	return op, ok, err
}

// minCostUPSLattice is the sizing search over the fixed 65-point rating
// lattice, parameterized by a warm-start hint: warm is the lattice index an
// adjacent outage's search settled on (-1 for a cold call). The returned
// index is the chosen lattice point (-1 on the zero-draw path or when
// sizing fails), which axis callers chain into the next point's hint.
func (f *Framework) minCostUPSLattice(ctx context.Context, tech technique.Technique, w workload.Spec, outage time.Duration, warm int) (OperatingPoint, bool, int, error) {
	if err := f.validateCall(outage); err != nil {
		return OperatingPoint{}, false, -1, err
	}
	plan := tech.Plan(f.Env, w, outage)
	peakNeed := plan.PeakPower()
	dcPeak := f.Env.PeakPower()
	if peakNeed > dcPeak {
		peakNeed = dcPeak
	}
	btech := f.Battery
	if btech.Name == "" {
		btech = battery.LeadAcid()
	}

	consider := func(rated units.Watts) ratingCandidate {
		if rated < peakNeed {
			return ratingCandidate{}
		}
		runtime, ok := cluster.RequiredRuntime(f.Env, w, plan, genset.None(), outage,
			rated, btech.PeukertExponent, btech.MinLoadFraction)
		if !ok {
			return ratingCandidate{}
		}
		// Tiny provisioning margin so the simulation's fractional
		// depletion does not land exactly on empty at the outage end,
		// then rounded up once to whole seconds (battery modules are not
		// sold in nanoseconds).
		runtime = time.Duration(float64(runtime) * 1.001)
		if whole := runtime.Truncate(time.Second); whole < runtime {
			runtime = whole + time.Second
		}
		b := cost.CustomTech(fmt.Sprintf("ups-%s", tech.Name()), 0, rated, runtime, btech)
		return ratingCandidate{backup: b, cost: float64(b.AnnualCost()), ok: true}
	}

	if peakNeed <= 0 {
		// Zero-draw plan (fully state-safe immediately) — no backup needed.
		b := cost.MinCost(dcPeak)
		res, err := f.Evaluate(b, tech, w, outage)
		if err != nil || !res.Survived {
			return OperatingPoint{}, false, -1, nil
		}
		return OperatingPoint{Technique: tech.Name(), Backup: b, Result: res}, true, -1, nil
	}
	// Candidate ratings live on a fixed 65-point geometric lattice from
	// the plan's peak need to the datacenter peak. The dense sweep
	// evaluates every lattice point; the default bracketed search
	// evaluates a 9-point coarse pass (stride 8) and then halves the
	// stride around the running argmin (4, 2, 1) down to the same lattice
	// resolution — ~15 RequiredRuntime calls instead of 65. The cost
	// curve over the rating is convex up to the one-second runtime
	// quantization (electronics cost rises linearly, the Peukert battery
	// term falls like rating^(1-k)), so the bracket lands on the dense
	// argmin; TestBracketSizingMatchesDenseGrid pins the equivalence
	// across the registry's whole sizing grid.
	const steps = 64
	lo, hi := float64(peakNeed), float64(dcPeak)
	if hi < lo {
		hi = lo
	}
	ratingAt := func(i int) units.Watts {
		return units.Watts(lo * math.Pow(hi/lo, float64(i)/steps))
	}

	var cands [steps + 1]ratingCandidate
	var seen [steps + 1]bool
	evalRound := func(idxs []int) error {
		got, err := sweep.Map(ctx, idxs, func(_ context.Context, i int) (ratingCandidate, error) {
			return consider(ratingAt(i)), nil
		})
		if err != nil {
			return err
		}
		for j, c := range got {
			cands[idxs[j]], seen[idxs[j]] = c, true
		}
		return nil
	}
	// argmin scans the evaluated lattice points in index order with a
	// strict <, so ties resolve to the lowest rating — the same fold the
	// dense serial sweep used. Selection happens only after each round's
	// parallel results are folded, so the outcome is width-independent.
	argmin := func() (int, bool) {
		best, bestCost, found := 0, math.Inf(1), false
		for i := 0; i <= steps; i++ {
			if seen[i] && cands[i].ok && cands[i].cost < bestCost {
				best, bestCost, found = i, cands[i].cost, true
			}
		}
		return best, found
	}

	// Warm start from an adjacent outage's argmin (axis sizing): probe the
	// hinted index and its lattice neighbors; if the hint is feasible and a
	// strict local minimum, the convexity the bracketed search already
	// relies on makes it the dense-grid argmin, so the coarse-and-refine
	// rounds are skipped (~3 rating evaluations instead of ~15). Any tie,
	// infeasibility, or boundary ambiguity discards the probe and reruns
	// the standard search on reset state — the cold trajectory exactly.
	if warm >= 0 && warm <= steps && !DenseSizingGrid {
		probe := make([]int, 0, 3)
		for _, j := range [3]int{warm - 1, warm, warm + 1} {
			if j >= 0 && j <= steps {
				probe = append(probe, j)
			}
		}
		if err := evalRound(probe); err != nil {
			return OperatingPoint{}, false, -1, err
		}
		localMin := cands[warm].ok
		for _, j := range probe {
			if j != warm && (!cands[j].ok || cands[j].cost <= cands[warm].cost) {
				localMin = false
			}
		}
		if localMin {
			best := cands[warm].backup
			res, err := f.Evaluate(best, tech, w, outage)
			if err != nil || !res.Survived {
				return OperatingPoint{}, false, -1, nil
			}
			return OperatingPoint{
				Technique: tech.Name(),
				Backup:    best,
				Result:    res,
				NormCost:  best.NormalizedCost(dcPeak),
			}, true, warm, nil
		}
		cands = [steps + 1]ratingCandidate{}
		seen = [steps + 1]bool{}
	}

	if DenseSizingGrid {
		idxs := make([]int, steps+1)
		for i := range idxs {
			idxs[i] = i
		}
		if err := evalRound(idxs); err != nil {
			return OperatingPoint{}, false, -1, err
		}
	} else {
		coarse := [...]int{0, 8, 16, 24, 32, 40, 48, 56, 64}
		if err := evalRound(coarse[:]); err != nil {
			return OperatingPoint{}, false, -1, err
		}
		// Feasibility is uniform across the lattice (every point sources
		// the plan's peak need), so an all-infeasible coarse pass means
		// the dense grid would find nothing either — skip refinement.
		if c, ok := argmin(); ok {
			for stride := 4; stride >= 1; stride /= 2 {
				var round [2]int
				n := 0
				for _, j := range [2]int{c - stride, c + stride} {
					if j >= 0 && j <= steps && !seen[j] {
						round[n] = j
						n++
					}
				}
				if n > 0 {
					if err := evalRound(round[:n]); err != nil {
						return OperatingPoint{}, false, -1, err
					}
				}
				c, _ = argmin()
			}
		}
	}

	bestIdx, found := argmin()
	if !found {
		return OperatingPoint{}, false, -1, nil
	}
	best := cands[bestIdx].backup
	res, err := f.Evaluate(best, tech, w, outage)
	if err != nil || !res.Survived {
		return OperatingPoint{}, false, -1, nil
	}
	return OperatingPoint{
		Technique: tech.Name(),
		Backup:    best,
		Result:    res,
		NormCost:  best.NormalizedCost(dcPeak),
	}, true, bestIdx, nil
}

// Band is a (min, max) pair over a technique's variants — the paper's
// (Min,Max) bars for DVFS-based techniques.
type Band struct {
	Min, Max float64
}

// Widen grows the band to include v.
func (b *Band) Widen(v float64) {
	if v < b.Min {
		b.Min = v
	}
	if v > b.Max {
		b.Max = v
	}
}

// DurationBand is a (min, max) pair of durations.
type DurationBand struct {
	Min, Max time.Duration
}

// Widen grows the band to include d.
func (b *DurationBand) Widen(d time.Duration) {
	if d < b.Min {
		b.Min = d
	}
	if d > b.Max {
		b.Max = d
	}
}

// TechniqueSummary aggregates a technique family's operating points for one
// workload and outage duration — one column group of Figures 6-9.
type TechniqueSummary struct {
	Technique string
	Feasible  bool
	Cost      Band
	Perf      Band
	Downtime  DurationBand
	Points    []OperatingPoint
}

// variant is one concrete instance within a technique family.
type variant struct {
	family string
	tech   technique.Technique
}

// TechVariant is an exported (family, technique) pair: one concrete
// instance of a Section 6 technique family. The grid subsystem sweeps the
// same variant set the figures do, so its enumeration lives here.
type TechVariant struct {
	Family string
	Tech   technique.Technique
}

// TechVariants expands the Section 6 technique families into concrete
// instances in the canonical evaluation order — the exact set and order
// EvaluateTechniquesCtx races, exported for declarative grid specs.
func (f *Framework) TechVariants() []TechVariant {
	vs := f.variants()
	out := make([]TechVariant, len(vs))
	for i, v := range vs {
		out[i] = TechVariant{Family: v.family, Tech: v.tech}
	}
	return out
}

// variants expands the Section 6 technique families into concrete
// instances: throttling across the DVFS range, hybrids across
// active-fraction splits.
func (f *Framework) variants() []variant {
	deepest := len(f.Env.Server.PStates) - 1
	var out []variant
	add := func(family string, t technique.Technique) {
		out = append(out, variant{family, t})
	}
	for p := 1; p <= deepest; p++ {
		add("Throttling", technique.Throttling{PState: p})
	}
	add("Migration", technique.Migration{})
	add("Migration", technique.Migration{ThrottleDeep: true})
	add("ProactiveMigration", technique.Migration{Proactive: true})
	add("ProactiveMigration", technique.Migration{Proactive: true, ThrottleDeep: true})
	add("Sleep", technique.Sleep{})
	add("Sleep-L", technique.Sleep{LowPower: true})
	add("Hibernate", technique.Hibernate{})
	add("Hibernate-L", technique.Hibernate{LowPower: true})
	add("ProactiveHibernate", technique.Hibernate{Proactive: true})
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		add("Throttle+Sleep-L", technique.ThrottleThenSave{
			PState: deepest, Save: technique.SaveSleep, ActiveFraction: frac,
		})
		add("Throttle+Hibernate", technique.ThrottleThenSave{
			PState: deepest, Save: technique.SaveHibernate, ActiveFraction: frac,
		})
		add("Migration+Sleep-L", technique.MigrationThenSleep{ActiveFraction: frac})
	}
	return out
}

// Families returns the family names in presentation order.
func Families() []string {
	return []string{
		"Throttling", "Migration", "ProactiveMigration",
		"Sleep", "Sleep-L", "Hibernate", "Hibernate-L", "ProactiveHibernate",
		"Throttle+Sleep-L", "Throttle+Hibernate", "Migration+Sleep-L",
	}
}

// EvaluateTechniques computes, for each technique family, the band of
// min-cost operating points across its variants — the data behind
// Figures 6-9.
func (f *Framework) EvaluateTechniques(w workload.Spec, outage time.Duration) []TechniqueSummary {
	sums, _ := f.EvaluateTechniquesCtx(context.Background(), w, outage)
	return sums
}

// EvaluateTechniquesCtx fans the ~30 technique variants out through the
// sweep engine (each variant's min-cost sizing is itself a parallel rating
// sweep) and folds the operating points into per-family bands in variant
// order, so the result is identical to the serial evaluation. The error is
// non-nil only on context cancellation or invalid input.
func (f *Framework) EvaluateTechniquesCtx(ctx context.Context, w workload.Spec, outage time.Duration) ([]TechniqueSummary, error) {
	if err := f.validateCall(outage); err != nil {
		return nil, err
	}
	points, err := sweep.Map(ctx, f.variants(), func(ctx context.Context, v variant) (VariantPoint, error) {
		op, ok, err := f.MinCostUPSCtx(ctx, v.tech, w, outage)
		if err != nil {
			return VariantPoint{}, err
		}
		return VariantPoint{Family: v.family, Op: op, OK: ok}, nil
	})
	if err != nil {
		return nil, err
	}
	return FoldSummaries(points), nil
}

// VariantPoint is one variant's sizing outcome on its way into a family
// fold: the family label plus the min-cost operating point (OK false when
// no UPS-only configuration lets the variant survive the outage).
type VariantPoint struct {
	Family string
	Op     OperatingPoint
	OK     bool
}

// FoldSummaries reduces per-variant operating points (in variant order)
// into per-family band summaries, families in presentation order — the
// serial fold behind Figures 6-9, shared by EvaluateTechniquesCtx and the
// grid-spec figure generators so both produce identical tables.
func FoldSummaries(points []VariantPoint) []TechniqueSummary {
	byFamily := map[string]*TechniqueSummary{}
	order := Families()
	for _, name := range order {
		byFamily[name] = &TechniqueSummary{Technique: name}
	}
	for _, p := range points {
		if !p.OK {
			continue
		}
		s := byFamily[p.Family]
		if s == nil {
			continue
		}
		op := p.Op
		s.Points = append(s.Points, op)
		if !s.Feasible {
			s.Feasible = true
			s.Cost = Band{op.NormCost, op.NormCost}
			s.Perf = Band{op.Result.Perf, op.Result.Perf}
			s.Downtime = DurationBand{op.Result.Downtime, op.Result.Downtime}
			continue
		}
		s.Cost.Widen(op.NormCost)
		s.Perf.Widen(op.Result.Perf)
		s.Downtime.Widen(op.Result.Downtime)
	}
	out := make([]TechniqueSummary, 0, len(order))
	for _, name := range order {
		out = append(out, *byFamily[name])
	}
	return out
}

// bestCandidates is the Figure 5 race's candidate set behind backup b, in
// canonical order: the plain baseline, every technique variant, and, when
// a UPS is provisioned, budget-driven capping — the power move an
// underprovisioned UPS (DG-SmallPUPS, SmallP-LargeEUPS) needs to keep
// serving under its cap (the capping controller picks the fastest fitting
// P/T state).
func (f *Framework) bestCandidates(b cost.Backup) []variant {
	candidates := append([]variant{
		{"Baseline", technique.Baseline{}},
	}, f.variants()...)
	if b.UPS.Provisioned() {
		candidates = append(candidates,
			variant{"CappedThrottling", technique.CappedThrottling{Budget: b.UPS.PowerCapacity}})
	}
	return candidates
}

// better is the Figure 5 selection rule shared by the scalar and batch
// races: does candidate a, at position ia of bestCandidates, beat
// candidate b at position ib? Survival dominates, then higher performance
// compared on a 1e-6 grid, then lower downtime, then the earlier
// candidate. It is a strict total order, so the winner does not depend
// on the order candidates are compared in.
func better(a cluster.Result, ia int, b cluster.Result, ib int) bool {
	if a.Survived != b.Survived {
		return a.Survived
	}
	if pa, pb := math.Round(a.Perf/perfGrid), math.Round(b.Perf/perfGrid); pa != pb {
		return pa > pb
	}
	if a.Downtime != b.Downtime {
		return a.Downtime < b.Downtime
	}
	return ia < ib
}

// perfGrid is the resolution at which the race compares performance:
// differences below it are float noise, not a better technique.
const perfGrid = 1e-6

// BestForConfig picks the technique (across all variants, plus the plain
// baseline) that performs best behind a FIXED backup configuration — the
// Figure 5 selection rule: "for each backup configuration, we choose the
// system technique that offers the highest performance and lowest down
// time". Survival dominates, then higher performance, then lower downtime.
func (f *Framework) BestForConfig(b cost.Backup, w workload.Spec, outage time.Duration) (cluster.Result, technique.Technique) {
	res, tech, _ := f.BestForConfigCtx(context.Background(), b, w, outage)
	return res, tech
}

// BestForConfigCtx is BestForConfig with the candidate race fanned out
// through the sweep engine. The winner is the maximum under better, a
// total order, so it is the same as a serial run's. The error is non-nil
// only on context cancellation or invalid input.
func (f *Framework) BestForConfigCtx(ctx context.Context, b cost.Backup, w workload.Spec, outage time.Duration) (cluster.Result, technique.Technique, error) {
	if err := f.validateCall(outage); err != nil {
		return cluster.Result{}, nil, err
	}
	candidates := f.bestCandidates(b)
	type candResult struct {
		res cluster.Result
		ok  bool
	}
	results, err := sweep.Map(ctx, candidates, func(_ context.Context, v variant) (candResult, error) {
		res, err := f.Evaluate(b, v.tech, w, outage)
		if err != nil {
			// An unevaluable candidate is skipped, exactly as the serial
			// loop did; it must not abort the race.
			return candResult{}, nil
		}
		return candResult{res: res, ok: true}, nil
	})
	if err != nil {
		return cluster.Result{}, nil, err
	}
	var bestRes cluster.Result
	var bestTech technique.Technique
	best := -1
	for i, r := range results {
		if !r.ok {
			continue
		}
		if best < 0 || better(r.res, i, bestRes, best) {
			bestRes, bestTech, best = r.res, candidates[i].tech, i
		}
	}
	return bestRes, bestTech, nil
}
