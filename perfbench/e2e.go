package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Load shapes of the end-to-end workloads. Every run of a workload sends
// the same count-based request sequence for a given seed and --seconds:
// the counts below are the requests (or epochs) per second of --seconds
// the seed code sustains, so a run of the seed code lasts about
// --seconds, and cache flushes, store seals and compactions fall at the
// same request indices on every run.
const (
	// studyPerSecond and fabricPerSecond set the closed-loop request
	// counts of study and fabric.
	studyPerSecond  = 18.0
	fabricPerSecond = 2.2
	// rerunPerEpoch studies make one rerun epoch; rerunEpochsPerSecond
	// sets how many epochs a run makes.
	rerunPerEpoch        = 12
	rerunEpochsPerSecond = 1.4
	// studyWarm studies warm the study and fabric targets up.
	studyWarm = 2
	// setupReps is how many times each run sets the target up; setup_s is
	// the median.
	setupReps = 9
	// checkSample is how many study or fabric responses, beyond the first
	// and the last, are byte-checked against the reference.
	checkSample = 6
)

// Result is one workload run's measurement.
type Result struct {
	Attempted, Failed int
	Metrics           map[string]float64
	Counts            map[string]float64
	Digest            string
}

// Bench holds what every workload run needs.
type Bench struct {
	bin, work, logs string
	seed            int64
	seconds         int
}

func (b *Bench) count(perSecond float64) int {
	return max(1, int(math.Round(perSecond*float64(b.seconds))))
}

// start launches the processes a workload runs against and returns them
// with the URL requests go to.
func (b *Bench) start(ctx context.Context, workload, storeDir string) (Group, string, error) {
	backupd := filepath.Join(b.bin, "backupd")
	switch workload {
	case "fabric":
		var g Group
		var urls []string
		for i := 0; i < 2; i++ {
			p, err := Start(ctx, b.logs, fmt.Sprintf("worker%d", i), backupd,
				"-parallel", "1", "-worker-id", fmt.Sprintf("w%d", i))
			if err != nil {
				g.Stop()
				return nil, "", err
			}
			g = append(g, p)
			urls = append(urls, p.URL)
		}
		front, err := Start(ctx, b.logs, "sweepfront", filepath.Join(b.bin, "sweepfront"),
			"-serve", "-workers", strings.Join(urls, ","))
		if err != nil {
			g.Stop()
			return nil, "", err
		}
		return append(g, front), front.URL, nil
	case "rerun":
		p, err := Start(ctx, b.logs, "backupd", backupd, "-store-dir", storeDir)
		if err != nil {
			return nil, "", err
		}
		return Group{p}, p.URL, nil
	default:
		p, err := Start(ctx, b.logs, "backupd", backupd)
		if err != nil {
			return nil, "", err
		}
		return Group{p}, p.URL, nil
	}
}

// warmUp sends the warm-up pass and fails on any bad answer.
func warmUp(ctx context.Context, url string, warm []Request) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	out, err := ClosedLoop(ctx, client, url, warm, nil)
	if err != nil {
		return err
	}
	for _, o := range out {
		if !o.OK() {
			return fmt.Errorf("warm-up: %w", firstFailure(warm, out))
		}
	}
	return nil
}

// setup starts the workload's processes and sends its warm-up pass
// setupReps times, keeping the last set running. It returns the set-up
// times in seconds.
func (b *Bench) setup(ctx context.Context, workload string, warm []Request) (Group, string, []float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		g, url, err := b.start(ctx, workload, "")
		if err != nil {
			return nil, "", nil, err
		}
		if err := warmUp(ctx, url, warm); err != nil {
			g.Stop()
			return nil, "", nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == setupReps-1 {
			return g, url, times, nil
		}
		if err := g.Stop(); err != nil {
			return nil, "", nil, err
		}
	}
	panic("unreachable")
}

// metricsDoc fetches a target's GET /metrics document.
func metricsDoc(ctx context.Context, url string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", url, err)
	}
	return doc, nil
}

// addCounts adds the numeric leaves of a metrics document section to
// counts under prefix.
func addCounts(counts map[string]float64, prefix string, v any) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			addCounts(counts, prefix+"."+k, c)
		}
	case float64:
		counts[prefix] += t
	}
}

// targetCounts collects the counters that explain extra work: scenario
// cache hits and misses on backupd, shard dispatches, hedges and retries
// on sweepfront, and the store's counters under -store-dir.
func targetCounts(ctx context.Context, g Group, counts map[string]float64) error {
	for _, p := range g {
		doc, err := metricsDoc(ctx, p.URL)
		if err != nil {
			return err
		}
		for _, k := range []string{"cache", "shards", "store"} {
			if v, ok := doc[k]; ok {
				addCounts(counts, k, v)
			}
		}
		// Gauges say nothing as deltas or sums across epochs.
		for _, k := range []string{"cache.entries", "store.blocks", "store.keys", "store.wal_bytes"} {
			delete(counts, k)
		}
	}
	return nil
}

// Windows of a timed pass: it is cut into latencyWindows consecutive
// request windows of at least minWindow requests (fewer windows when the
// pass is short).
const (
	latencyWindows = 10
	minWindow      = 10
)

func windowCount(n int) int { return max(1, min(latencyWindows, n/minWindow)) }

// window returns the bounds of window i of n requests.
func window(n, i int) (lo, hi int) {
	w := windowCount(n)
	return i * n / w, (i + 1) * n / w
}

// windowedQuantiles returns the median over the windows of each window's
// p50 and p90. A stall of the shared machine that backs requests up for a
// few seconds moves a few windows, not the median of them.
func windowedQuantiles(lat []float64) (p50, p90 float64) {
	var w50, w90 []float64
	for i := 0; i < windowCount(len(lat)); i++ {
		lo, hi := window(len(lat), i)
		seg := append([]float64(nil), lat[lo:hi]...)
		w50 = append(w50, Quantile(seg, 0.50))
		w90 = append(w90, Quantile(seg, 0.90))
	}
	return Median(w50), Median(w90)
}

// measure turns a closed-loop timed pass into the end-to-end metrics.
// Each is the median over the pass's windows of its value in the window:
// latency quantiles; throughput as completed requests per second of the
// window's wall time, from its first send to its last byte (or, with
// requestTime, per second of the window's summed request time, which
// leaves out the gaps between requests); and the program's CPU time per
// completed request. Peak RSS is the median of peaks, each read over a
// window or an epoch.
func measure(out []Outcome, peaks []float64, setups []float64, requestTime bool) map[string]float64 {
	p50, p90 := windowedQuantiles(Latencies(out))
	var tputs, cpus []float64
	for i := 0; i < windowCount(len(out)); i++ {
		lo, hi := window(len(out), i)
		var busy, cpu time.Duration
		ok := 0
		for _, o := range out[lo:hi] {
			busy += o.Done.Sub(o.Sent)
			cpu += o.CPU
			if o.OK() {
				ok++
			}
		}
		if !requestTime {
			busy = out[hi-1].Done.Sub(out[lo].Sent)
		}
		tputs = append(tputs, float64(ok)/busy.Seconds())
		cpus = append(cpus, float64(cpu)/1e3/float64(max(ok, 1)))
	}
	return map[string]float64{
		"setup_s":        Median(setups),
		"p50_ms":         p50,
		"p90_ms":         p90,
		"throughput_rps": Median(tputs),
		"cpu_us_per_req": Median(cpus),
		"peak_rss_mb":    Median(peaks) / (1 << 20),
	}
}

// sampleChecker selects the first and last request plus checkSample
// seeded others for byte-checking.
func sampleChecker(seed int64, n int) func(int) bool {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pick := map[int]bool{0: true, n - 1: true}
	for len(pick) < min(n, checkSample+2) {
		pick[rng.Intn(n)] = true
	}
	return func(i int) bool { return pick[i] }
}

// RunWorkload runs one end-to-end workload: set-up, the timed pass, and
// the correctness check after the timed window.
func (b *Bench) RunWorkload(ctx context.Context, workload string) (*Result, error) {
	if workload == "rerun" {
		return b.runRerun(ctx)
	}
	var n int
	switch workload {
	case "study":
		n = b.count(studyPerSecond)
	case "fabric":
		n = b.count(fabricPerSecond)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: study, fabric, rerun)", workload)
	}
	warm, timed, err := studyInputs(b.seed, studyWarm, n)
	if err != nil {
		return nil, err
	}
	check := sampleChecker(b.seed, len(timed))
	res := &Result{Counts: map[string]float64{}, Digest: sequenceDigest(warm, timed)}

	g, url, setups, err := b.setup(ctx, workload, warm)
	if err != nil {
		return nil, err
	}
	defer g.Stop()
	before := map[string]float64{}
	if err := targetCounts(ctx, g, before); err != nil {
		return nil, err
	}
	client := newClient(1)
	steal0 := StealTime()
	// The pass runs window by window, so that each window's peak RSS is
	// read on its own: a late garbage collection then moves one window's
	// peak, not the run's.
	var out []Outcome
	var peaks []float64
	for i := 0; i < windowCount(len(timed)); i++ {
		lo, hi := window(len(timed), i)
		if err := g.ResetPeakRSS(); err != nil {
			return nil, err
		}
		o, err := ClosedLoop(ctx, client, url, timed[lo:hi], g.CPU)
		if err != nil {
			return nil, err
		}
		rss, err := g.PeakRSS()
		if err != nil {
			return nil, err
		}
		out = append(out, o...)
		peaks = append(peaks, float64(rss))
	}
	res.Counts["steal_ms"] = float64(StealTime()-steal0) / 1e6
	client.CloseIdleConnections()
	if err := targetCounts(ctx, g, res.Counts); err != nil {
		return nil, err
	}
	for k, v := range before {
		res.Counts[k] -= v
	}
	if err := g.Stop(); err != nil {
		return nil, err
	}

	res.Metrics = measure(out, peaks, setups, false)
	res.Attempted = len(out)
	res.Failed, err = Verify(timed, out, NewReference(), check)
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed; first: %v\n",
			res.Failed, res.Attempted, firstFailure(timed, out))
	}
	return res, nil
}

// runRerun runs the rerun workload: identical epochs, each a backupd
// with -store-dir on an empty directory that serves the epoch's studies
// and is then stopped, its directory deleted. Only the epochs' requests
// are timed: process start and stop fall outside every window.
func (b *Bench) runRerun(ctx context.Context) (*Result, error) {
	warmReq, epoch, err := rerunInputs(b.seed, rerunPerEpoch)
	if err != nil {
		return nil, err
	}
	epochs := b.count(rerunEpochsPerSecond)
	res := &Result{Counts: map[string]float64{}, Digest: sequenceDigest([]Request{warmReq}, epoch)}
	warm := []Request{warmReq}

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		err := b.epoch(ctx, rep, func(url string, _ Group) error {
			return warmUp(ctx, url, warm)
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var all []Outcome
	var reqs []Request
	var peaks []float64
	steal0 := StealTime()
	for e := 0; e < epochs; e++ {
		err := b.epoch(ctx, setupReps+e, func(url string, g Group) error {
			client := newClient(1)
			defer client.CloseIdleConnections()
			out, err := ClosedLoop(ctx, client, url, epoch, g.CPU)
			if err != nil {
				return err
			}
			r, err := g.PeakRSS()
			if err != nil {
				return err
			}
			peaks = append(peaks, float64(r))
			all = append(all, out...)
			reqs = append(reqs, epoch...)
			return targetCounts(ctx, g, res.Counts)
		})
		if err != nil {
			return nil, err
		}
	}
	res.Counts["steal_ms"] = float64(StealTime()-steal0) / 1e6
	// The epochs' process restarts fall between requests and are left
	// out of throughput: it counts request time only.
	res.Metrics = measure(all, peaks, setups, true)
	res.Counts["store.compactions_per_epoch"] = res.Counts["store.compactions"] / float64(epochs)
	res.Attempted = len(all)
	// Every epoch repeats the same studies, so the reference digests of
	// one epoch check every response.
	if res.Failed, err = Verify(reqs, all, NewReference(), func(int) bool { return true }); err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed; first: %v\n",
			res.Failed, res.Attempted, firstFailure(reqs, all))
	}
	return res, nil
}

// epoch starts backupd on an empty store directory, runs fn against it,
// then stops the process and deletes the directory, whatever fn returns.
func (b *Bench) epoch(ctx context.Context, n int, fn func(url string, g Group) error) error {
	dir := storeDir(b.work, n)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g, url, err := b.start(ctx, "rerun", dir)
	if err != nil {
		return err
	}
	ferr := fn(url, g)
	serr := g.Stop()
	if ferr != nil {
		return ferr
	}
	return serr
}

// storeDir is the store directory of rerun epoch n.
func storeDir(work string, n int) string {
	return filepath.Join(work, "rerun", fmt.Sprintf("%d-%d", os.Getpid(), n))
}
