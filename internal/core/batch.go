package core

import (
	"context"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/cost"
	"backuppower/internal/sweep"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// EvaluateBatch evaluates one (backup, technique, workload) triple across a
// whole outage axis, returning results[i] identical to Evaluate at
// outages[i]. It shares the scenario memo cache with the scalar path in
// both directions: points already memoized are served from cache (a warm
// hit splits the batch — only the cold points are walked, through one
// cluster.SimulateOutageBatch call), and the cold points' results seed the
// cache for later scalar callers. Hit/miss accounting matches the scalar
// path exactly: a warm point is one hit, a cold point is one miss.
func (f *Framework) EvaluateBatch(b cost.Backup, tech technique.Technique, w workload.Spec, outages []time.Duration) ([]cluster.Result, error) {
	if len(outages) == 0 {
		return nil, nil
	}
	for _, d := range outages {
		if err := f.validateCall(d); err != nil {
			return nil, err
		}
	}
	scn := cluster.Scenario{Env: f.Env, Workload: w, Backup: b, Technique: tech}
	if !keyable(scn) {
		return cluster.SimulateOutageBatch(scn, outages)
	}

	results := make([]cluster.Result, len(outages))
	keys := make([]cacheKey, len(outages))
	var coldIdx []int
	// One digest of the outage-invariant scenario content covers the whole
	// axis: cacheKey carries the outage verbatim, so per-point keys are a
	// struct copy plus an outage stamp — no per-point content hashing.
	scn.Outage = outages[0]
	base := f.scenarioCacheKey(scn)
	for i, d := range outages {
		keys[i] = base
		keys[i].outage = d
		if v, err, ok := scenarioCache.Peek(keys[i]); ok {
			if err != nil {
				return nil, err
			}
			results[i] = v
			continue
		}
		coldIdx = append(coldIdx, i)
	}
	if len(coldIdx) == 0 {
		return results, nil
	}

	cold := make([]time.Duration, len(coldIdx))
	for j, i := range coldIdx {
		cold[j] = outages[i]
	}
	batch, err := cluster.SimulateOutageBatch(scn, cold)
	if err != nil {
		return nil, err
	}
	for j, i := range coldIdx {
		res := batch[j]
		// Seeding through Do keeps the singleflight and counter semantics:
		// the first seed for a key counts the miss, a duplicate outage (or
		// a racing scalar Evaluate) joins the existing entry as a hit, and
		// whatever the entry holds is what every caller sees.
		got, err := scenarioCache.Do(keys[i], func() (cluster.Result, error) { return res, nil })
		if err != nil {
			return nil, err
		}
		results[i] = got
	}
	return results, nil
}

// EvaluateBatchCtx is EvaluateBatch with the same up-front cancellation
// check as EvaluateCtx.
func (f *Framework) EvaluateBatchCtx(ctx context.Context, b cost.Backup, tech technique.Technique, w workload.Spec, outages []time.Duration) ([]cluster.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.EvaluateBatch(b, tech, w, outages)
}

// SizingPoint is one outage's min-cost sizing outcome on an axis:
// Feasible mirrors MinCostUPS's ok return.
type SizingPoint struct {
	Op       OperatingPoint
	Feasible bool
}

// MinCostUPSAxisCtx runs the min-cost UPS sizing across an outage axis,
// producing exactly what per-point MinCostUPSCtx would while sharing
// bracket state between adjacent outages: each search warm-starts from the
// previous point's argmin lattice index, and the warm probe only short-
// circuits when local convexity proves the hint is still the argmin — any
// ambiguity falls back to the full cold bracket, so the outputs are
// identical whatever order the axis is traversed in.
func (f *Framework) MinCostUPSAxisCtx(ctx context.Context, tech technique.Technique, w workload.Spec, outages []time.Duration) ([]SizingPoint, error) {
	out := make([]SizingPoint, len(outages))
	warm := -1
	for i, d := range outages {
		op, ok, idx, err := f.minCostUPSLattice(ctx, tech, w, d, warm)
		if err != nil {
			return nil, err
		}
		out[i] = SizingPoint{Op: op, Feasible: ok}
		if ok && idx >= 0 {
			warm = idx
		}
	}
	return out, nil
}

// BestPoint is one outage's Figure 5 selection: the winning technique's
// result and the technique itself (nil when no candidate evaluated).
type BestPoint struct {
	Result cluster.Result
	Tech   technique.Technique
}

// BestForConfigAxisCtx runs the fixed-config technique race across an
// outage axis, returning per point exactly what BestForConfigCtx would.
// The candidate set is identical; each candidate is evaluated over the
// whole axis in one batch (amortizing plan construction and the segment
// walk), and the per-outage fold picks the maximum under the same total
// order (better), so it names the scalar race's winner.
func (f *Framework) BestForConfigAxisCtx(ctx context.Context, b cost.Backup, w workload.Spec, outages []time.Duration) ([]BestPoint, error) {
	for _, d := range outages {
		if err := f.validateCall(d); err != nil {
			return nil, err
		}
	}
	candidates := f.bestCandidates(b)
	type candAxis struct {
		res []cluster.Result
		ok  []bool
	}
	results, err := sweep.Map(ctx, candidates, func(ctx context.Context, v variant) (candAxis, error) {
		if err := ctx.Err(); err != nil {
			return candAxis{}, err
		}
		res, err := f.EvaluateBatch(b, v.tech, w, outages)
		if err == nil {
			ok := make([]bool, len(outages))
			for i := range ok {
				ok[i] = true
			}
			return candAxis{res: res, ok: ok}, nil
		}
		// A batch failure degrades to the scalar race's semantics: each
		// point is tried alone and an unevaluable candidate is skipped at
		// that point only, never aborting the race.
		ca := candAxis{res: make([]cluster.Result, len(outages)), ok: make([]bool, len(outages))}
		for i, d := range outages {
			r, err := f.Evaluate(b, v.tech, w, d)
			if err != nil {
				continue
			}
			ca.res[i], ca.ok[i] = r, true
		}
		return ca, nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]BestPoint, len(outages))
	for i := range outages {
		best := -1
		for c, r := range results {
			if !r.ok[i] {
				continue
			}
			if best < 0 || better(r.res[i], c, out[i].Result, best) {
				out[i] = BestPoint{Result: r.res[i], Tech: candidates[c].tech}
				best = c
			}
		}
	}
	return out, nil
}
