package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"backuppower/internal/cost"
	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
	"backuppower/internal/outage"
	"backuppower/internal/workload"
)

// Request is one generated HTTP request: the route it is POSTed to and
// its JSON body. The program only ever sees these bytes; the seed stays
// in the benchmark.
type Request struct {
	Kind string // evaluate, size, best or sweep
	Path string
	Body []byte
	// Rows is the number of NDJSON rows a sweep answers with (0 for the
	// single-document routes).
	Rows int
}

// Shapes of the generated inputs. Changing any of them changes what the
// workloads measure, so they are constants, not flags.
const (
	// pointPool* bound the what-if points the point workload revisits;
	// the warm-up pass sends each once, so the timed requests hit the
	// scenario cache.
	pointPoolEvaluate = 192
	pointPoolSize     = 32
	pointPoolBest     = 32
	// pointWarmProcesses process sweeps warm the process path's code.
	pointWarmProcesses = 8
	// processDraws is the Monte-Carlo draw count of a point process row.
	processDraws = 8

	// studyOutages is the outage axis of one study: technique variants
	// (30) x Table-3 configurations (9) x one workload x 16 outages =
	// 4320 rows, the shape of Figs 6-9.
	studyOutages = 16

	// rerunConfigs x 30 technique variants x 16 outages = 1440 rows; each
	// study slides the outage window by half of it.
	rerunConfigs = 3
	rerunSlide   = studyOutages / 2

	// Outages are whole seconds, log-uniform between these bounds.
	minOutageSeconds = 60
	maxOutageSeconds = 12 * 3600
)

// table3Names are the paper's nine named backup configurations.
var table3Names = func() []string {
	var names []string
	for _, b := range cost.Table3(1) {
		names = append(names, b.Name)
	}
	return names
}()

// workloadNames are the calibrated workloads.
var workloadNames = func() []string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return names
}()

func intp(v int) *int           { return &v }
func boolp(v bool) *bool        { return &v }
func floatp(v float64) *float64 { return &v }

// pointTechniques are the technique selectors the point workload asks
// about: every family that accepts a scalar what-if question.
var pointTechniques = []grid.TechniqueDTO{
	{Name: "baseline"},
	{Name: "throttling", PState: intp(1)},
	{Name: "throttling", PState: intp(3)},
	{Name: "throttling", PState: intp(6)},
	{Name: "migration"},
	{Name: "migration", Proactive: boolp(true)},
	{Name: "sleep"},
	{Name: "sleep", LowPower: boolp(true)},
	{Name: "hibernate"},
	{Name: "hibernate", Proactive: boolp(true)},
	{Name: "throttle-then-save", PState: intp(6), Save: "sleep", ActiveFraction: floatp(0.5)},
	{Name: "migration-then-sleep", ActiveFraction: floatp(0.25)},
	{Name: "nvdimm"},
	{Name: "barely-alive"},
}

// outageSeconds draws a whole-second outage, log-uniform over
// [minOutageSeconds, maxOutageSeconds).
func outageSeconds(rng *rand.Rand) int {
	lo, hi := math.Log(minOutageSeconds), math.Log(maxOutageSeconds)
	s := int(math.Exp(lo + rng.Float64()*(hi-lo)))
	return min(max(s, minOutageSeconds), maxOutageSeconds-1)
}

func outageString(s int) string { return (time.Duration(s) * time.Second).String() }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a generated request: %v", err))
	}
	return b
}

func sweepRequest(spec grid.Spec, rows int) Request {
	return Request{Kind: "sweep", Path: "/v1/sweep", Body: mustJSON(httpapi.SweepRequest{Spec: spec}), Rows: rows}
}

// pointInputs generates the point workload: the warm-up pass (every pool
// entry once, plus a few process sweeps) and n timed requests, 5/8
// evaluate, 1/8 size, 1/8 best and 1/8 one-row process sweeps under a
// fresh process seed.
func pointInputs(seed int64, n int) (warm, timed []Request) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	tech := func() grid.TechniqueDTO { return pointTechniques[rng.Intn(len(pointTechniques))] }

	evals := make([]Request, pointPoolEvaluate)
	for i := range evals {
		evals[i] = Request{Kind: "evaluate", Path: "/v1/evaluate", Body: mustJSON(httpapi.EvaluateRequest{
			Config:    grid.ConfigDTO{Name: pick(table3Names)},
			Technique: tech(),
			Workload:  pick(workloadNames),
			Outage:    outageString(outageSeconds(rng)),
		})}
	}
	sizes := make([]Request, pointPoolSize)
	for i := range sizes {
		sizes[i] = Request{Kind: "size", Path: "/v1/size", Body: mustJSON(httpapi.SizeRequest{
			Technique: tech(),
			Workload:  pick(workloadNames),
			Outage:    outageString(outageSeconds(rng)),
		})}
	}
	bests := make([]Request, pointPoolBest)
	for i := range bests {
		bests[i] = Request{Kind: "best", Path: "/v1/best", Body: mustJSON(httpapi.BestRequest{
			Config:   grid.ConfigDTO{Name: pick(table3Names)},
			Workload: pick(workloadNames),
			Outage:   outageString(outageSeconds(rng)),
		})}
	}
	process := func() Request {
		return sweepRequest(grid.Spec{
			Workloads:  []string{pick(workloadNames)},
			Configs:    []grid.ConfigDTO{{Name: pick(table3Names)}},
			Techniques: []grid.TechniqueDTO{tech()},
			OutageProcesses: []grid.ProcessDTO{{
				Seed:     rng.Int63(),
				Draws:    processDraws,
				Arrival:  grid.DistDTO{Kind: outage.KindEmpirical},
				Duration: grid.DistDTO{Kind: outage.KindEmpirical},
			}},
		}, 1)
	}

	warm = append(warm, evals...)
	warm = append(warm, sizes...)
	warm = append(warm, bests...)
	for i := 0; i < pointWarmProcesses; i++ {
		warm = append(warm, process())
	}
	timed = make([]Request, n)
	for i := range timed {
		switch k := rng.Intn(8); {
		case k < 5:
			timed[i] = evals[rng.Intn(len(evals))]
		case k == 5:
			timed[i] = sizes[rng.Intn(len(sizes))]
		case k == 6:
			timed[i] = bests[rng.Intn(len(bests))]
		default:
			timed[i] = process()
		}
	}
	return warm, timed
}

// maxFreshOutages is how many distinct outages one input sequence may
// draw: half of the values outageSeconds returns. Rejection sampling then
// stays fast, and the draws stay close to log-uniform; the short end,
// where values are densest, would otherwise fill up first.
const maxFreshOutages = (maxOutageSeconds - minOutageSeconds) / 2

// freshOutages draws k distinct whole-second outages that no earlier draw
// from used has returned, so every row they make is a scenario-cache miss.
// It fails when that would take the sequence past maxFreshOutages, which
// a study run does at --seconds of about 75.
func freshOutages(rng *rand.Rand, used map[int]bool, k int) ([]string, error) {
	if len(used)+k > maxFreshOutages {
		return nil, fmt.Errorf("%d more fresh outages would exceed the %d one input sequence may draw; shorten --seconds",
			k, maxFreshOutages)
	}
	out := make([]string, 0, k)
	for len(out) < k {
		s := outageSeconds(rng)
		if used[s] {
			continue
		}
		used[s] = true
		out = append(out, outageString(s))
	}
	return out, nil
}

// studyRows is the row count of one study: 30 technique variants x 9
// Table-3 configurations x 16 outages.
const studyRows = 30 * 9 * studyOutages

// studyInputs generates the study (and fabric) workload: warm warm-up
// studies, then n timed ones, each a cold 4320-row sweep over fresh
// outages.
func studyInputs(seed int64, warmN, n int) (warm, timed []Request, err error) {
	rng := rand.New(rand.NewSource(seed))
	used := map[int]bool{}
	configs := make([]grid.ConfigDTO, len(table3Names))
	for i, name := range table3Names {
		configs[i] = grid.ConfigDTO{Name: name}
	}
	for i := 0; i < warmN+n; i++ {
		wl := workloadNames[rng.Intn(len(workloadNames))]
		outages, err := freshOutages(rng, used, studyOutages)
		if err != nil {
			return nil, nil, err
		}
		req := sweepRequest(grid.Spec{
			Workloads:         []string{wl},
			Configs:           configs,
			TechniqueVariants: true,
			Outages:           outages,
		}, studyRows)
		if i < warmN {
			warm = append(warm, req)
		} else {
			timed = append(timed, req)
		}
	}
	return warm, timed, nil
}

// rerunRows is the row count of one rerun study.
const rerunRows = 30 * rerunConfigs * studyOutages

// rerunInputs generates the rerun workload: one warm-up study, then the
// perEpoch studies every epoch repeats. Study k covers outage window
// [k*8, k*8+16) of one seeded outage list, so it shares half its rows
// with study k-1.
func rerunInputs(seed int64, perEpoch int) (warm Request, epoch []Request, err error) {
	rng := rand.New(rand.NewSource(seed))
	used := map[int]bool{}
	wl := workloadNames[rng.Intn(len(workloadNames))]
	perm := rng.Perm(len(table3Names))[:rerunConfigs]
	configs := make([]grid.ConfigDTO, rerunConfigs)
	for i, j := range perm {
		configs[i] = grid.ConfigDTO{Name: table3Names[j]}
	}
	spec := func(outages []string) grid.Spec {
		return grid.Spec{Workloads: []string{wl}, Configs: configs, TechniqueVariants: true, Outages: outages}
	}
	warmAxis, err := freshOutages(rng, used, studyOutages)
	if err != nil {
		return Request{}, nil, err
	}
	warm = sweepRequest(spec(warmAxis), rerunRows)
	axis, err := freshOutages(rng, used, rerunSlide*(perEpoch+1))
	if err != nil {
		return Request{}, nil, err
	}
	for k := 0; k < perEpoch; k++ {
		epoch = append(epoch, sweepRequest(spec(axis[k*rerunSlide:k*rerunSlide+studyOutages]), rerunRows))
	}
	return warm, epoch, nil
}

// sequenceDigest fingerprints a request sequence, so two runs can show
// they sent byte-identical inputs.
func sequenceDigest(seqs ...[]Request) string {
	h := sha256.New()
	for _, seq := range seqs {
		for _, r := range seq {
			fmt.Fprintf(h, "%s %d\n", r.Path, len(r.Body))
			h.Write(r.Body)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
