// Command perfbench is the repository's end-to-end benchmark. It drives
// the shipped binaries (cmd/backupd, and cmd/sweepfront -serve for the
// fabric workload) as child processes over loopback HTTP from one
// generator process, byte-checks their answers against an in-process
// reference outside the timed window, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 25 --trace 0
//
// Workloads: study (cold Figs 6-9 sweeps, one client), fabric (the same
// studies through sweepfront over two workers) and rerun (studies
// against a persistent store, in identical epochs). With --trace 1 it
// instead replays the seeded inputs of these and of the point workload
// (what-if questions on the scalar routes) in-process, through each
// program entry point and each layer's public functions, untraced,
// traced and untraced again, and prints the per-layer table.
//
// The input sequence is a function of --seed and --seconds only. CPU
// time and peak RSS are read from the program's processes in /proc, so
// they exclude the generator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// endToEnd are the end-to-end metrics with their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_us_per_req", "us"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "study, fabric or rerun")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "nominal measuring time; sets the request counts")
	trace := fs.Int("trace", 0, "1 = traced in-process replay with the per-layer table")
	bin := fs.String("bin", "", "directory holding the backupd and sweepfront binaries")
	work := fs.String("work", ".bench_build", "directory for logs, spans and rerun stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *workload {
	case "study", "fabric", "rerun":
	default:
		fmt.Fprintf(stderr, "perfbench: -workload must be study, fabric or rerun, got %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	logs := filepath.Join(*work, "logs")
	if err := os.MkdirAll(logs, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx := context.Background()
	// The generator's garbage collector shares the two cores with the
	// program; collecting less often keeps it out of the measurements.
	debug.SetGCPercent(400)

	fmt.Fprintf(stdout, "# env workload=%s seed=%d seconds=%d trace=%d go=%s gomaxprocs=%d nproc=%d GOMAXPROCS_env=%q\n",
		*workload, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), os.Getenv("GOMAXPROCS"))

	var attempted, failed int
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if *trace == 1 {
		m, a, f, err := runTrace(ctx, stdout, *work, *workload, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		attempted, failed = a, f
		for _, l := range perLayer {
			metrics[l.name] = metric{m[l.name], l.unit}
		}
	} else {
		b := &Bench{bin: *bin, work: *work, logs: logs, seed: *seed, seconds: *seconds}
		if b.bin == "" {
			fmt.Fprintln(stderr, "perfbench: -bin is required (run through perfbench/run.sh)")
			return 2
		}
		res, err := b.RunWorkload(ctx, *workload)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		attempted, failed = res.Attempted, res.Failed
		fmt.Fprintf(stdout, "# inputs requests=%d digest=%s\n", attempted, res.Digest)
		fmt.Fprintf(stdout, "# counts %s\n", formatCounts(res.Counts))
		for _, e := range endToEnd {
			fmt.Fprintf(stdout, "# %-16s %14.4f %s\n", e.name, res.Metrics[e.name], e.unit)
			metrics[e.name] = metric{res.Metrics[e.name], e.unit}
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN or infinity; a latency quantile is infinite
			// only when requests failed, which the result already says.
			metrics[name] = metric{-1, m.Unit}
			fmt.Fprintf(stderr, "perfbench: %s is not finite\n", name)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func formatCounts(c map[string]float64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.6g", k, c[k])
	}
	return b.String()
}

// runTrace runs the in-process replay untraced, traced and untraced
// again, writes the traced pass's spans, prints the per-layer table and
// returns its metrics.
func runTrace(ctx context.Context, stdout io.Writer, work, workload string, seed int64) (map[string]float64, int, int, error) {
	// Untraced passes before and after the traced one, so the overhead
	// ratio is not the cost of running first.
	var passes []*Replay
	for _, on := range []bool{false, true, false} {
		r := newReplay(on, work, seed)
		if err := r.Run(ctx); err != nil {
			return nil, 0, 0, err
		}
		passes = append(passes, r)
	}
	untraced, traced := passes[0], passes[1]
	m := layerMetrics(untraced, traced)
	m["bench.trace_overhead"] = 2 * sumWalls(traced) / (sumWalls(passes[0]) + sumWalls(passes[2]))

	dir := filepath.Join(work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	for _, name := range traced.order {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", workload, seed, name))
		if err := traced.phases[name].WriteFile(path); err != nil {
			return nil, 0, 0, err
		}
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", dir)
	fmt.Fprintf(stdout, "# %-36s %14s %-6s %s\n", "per-layer metric", "value", "unit", "should move")
	for _, l := range perLayer {
		fmt.Fprintf(stdout, "# %-36s %14.4f %-6s %s\n", l.name, m[l.name], l.unit, l.moves)
	}
	for _, w := range coverageWorkloads {
		c := m["bench.coverage."+w]
		verdict := "ok"
		if !withinEpsilon(c) {
			verdict = "NOT WITHIN EPSILON"
		}
		fmt.Fprintf(stdout, "# coverage %-6s layer self times / program entry time = %.4f (epsilon %.2f: %s)\n",
			w, c, coverageEpsilon, verdict)
	}
	var attempted, failed int
	for _, r := range passes {
		attempted += r.attempted
		failed += r.failed
	}
	// The named workload's coverage is one more check of the traced run:
	// program work in the entry that no layer span accounts for fails it.
	attempted++
	if !withinEpsilon(m["bench.coverage."+workload]) {
		failed++
	}
	return m, attempted, failed, nil
}

// coverageEpsilon is how far a workload's coverage may stray from 1.
const coverageEpsilon = 0.2

// coverageWorkloads are the workloads whose traced phase serves each
// request through a program entry point.
var coverageWorkloads = []string{"study", "fabric", "rerun"}

func withinEpsilon(c float64) bool { return math.Abs(1-c) <= coverageEpsilon }

// perLayer are the traced run's metrics: name, unit, and the end-to-end
// metric each should move.
var perLayer = []struct{ name, unit, moves string }{
	{"httpapi.handler_us.evaluate", "us", "point/p50_ms, point/cpu_us_per_req"},
	{"httpapi.handler_us.size", "us", "point/p50_ms, point/cpu_us_per_req"},
	{"httpapi.handler_us.best", "us", "point/p50_ms, point/cpu_us_per_req"},
	{"httpapi.handler_us.sweep", "us", "point/p90_ms, point/cpu_us_per_req"},
	{"httpapi.decode_us", "us", "point/p50_ms"},
	{"httpapi.transport_us", "us", "point/p50_ms"},
	{"httpapi.allocs_per_req", "count", "point/cpu_us_per_req"},
	{"grid.compile_us", "us", "study/p50_ms"},
	{"grid.run_self_us_per_row", "us", "study/throughput_rps"},
	{"grid.encode_us_per_row", "us", "study/throughput_rps, fabric/throughput_rps"},
	{"grid.bytes_per_row", "B", "study/throughput_rps, fabric/throughput_rps"},
	{"grid.rows_per_unit", "count", "study/throughput_rps"},
	{"grid.allocs_per_row", "count", "study/cpu_us_per_req"},
	{"core.eval_us.evaluate", "us", "point/p50_ms"},
	{"core.eval_us.size", "us", "point/p50_ms"},
	{"core.eval_us.best", "us", "point/p50_ms"},
	{"core.batch_us_per_point", "us", "study/cpu_us_per_req"},
	{"core.process_us_per_draw", "us", "point/p90_ms"},
	{"core.cache_hit_ratio.point", "ratio", "point/p50_ms"},
	{"core.cache_hit_ratio.study", "ratio", "none: ~0 on study by construction"},
	{"cluster.walk_us_per_point", "us", "study/cpu_us_per_req, fabric/cpu_us_per_req"},
	{"outage.draw_us", "us", "point/p90_ms"},
	{"outage.events_per_draw", "count", "point/p90_ms"},
	{"resultstore.get_us", "us", "rerun/p50_ms, rerun/p90_ms"},
	{"resultstore.put_us", "us", "rerun/p50_ms, rerun/p90_ms"},
	{"resultstore.seal_ms", "ms", "rerun/p50_ms, rerun/p90_ms"},
	{"resultstore.row_hit_ratio", "ratio", "rerun/cpu_us_per_req"},
	{"resultstore.scenario_hits_per_req", "count", "rerun/cpu_us_per_req"},
	{"resultstore.puts_per_req", "count", "rerun/cpu_us_per_req"},
	{"resultstore.compactions_per_epoch", "count", "rerun/cpu_us_per_req"},
	{"resultstore.bytes_per_key", "B", "rerun/peak_rss_mb"},
	{"fabric.tax_us_per_row", "us", "fabric/throughput_rps, fabric/cpu_us_per_req"},
	{"fabric.shards_per_req", "count", "fabric/p50_ms"},
	{"fabric.shard_p50_ms", "ms", "fabric/p50_ms"},
	{"fabric.hedge_share", "ratio", "fabric/cpu_us_per_req"},
	{"fabric.retry_share", "ratio", "fabric/cpu_us_per_req"},
	{"fabric.worker_row_skew", "ratio", "fabric/p90_ms"},
	{"bench.gen_late_ms", "ms", "validity: generator lateness on point"},
	{"bench.trace_overhead", "ratio", "validity: traced / untraced wall"},
	{"bench.coverage.study", "ratio", "validity: ~1 within epsilon"},
	{"bench.coverage.fabric", "ratio", "validity: ~1 within epsilon"},
	{"bench.coverage.rerun", "ratio", "validity: ~1 within epsilon"},
}

// layerMetrics computes the per-layer table, except the trace overhead.
// Times come from the traced pass's spans; allocation counts, transport
// and generator lateness from the untraced pass, where no span is
// recorded.
func layerMetrics(un, tr *Replay) map[string]float64 {
	t := map[string]LayerTotals{}
	for name, p := range tr.phases {
		t[name] = Totals(p.Spans())
	}
	c := tr.counts
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rows := c["grid.rows"]
	perRowUS := func(phase, span string) float64 { return ratio(float64(t[phase].SelfNS[span])/1e3, rows) }
	m := map[string]float64{
		"httpapi.decode_us":                 t["point.decode"].MeanUS("httpapi.decode"),
		"httpapi.transport_us":              un.counts["httpapi.transport_us"],
		"httpapi.allocs_per_req":            ratio(un.counts["httpapi.mallocs"], un.counts["point.requests"]),
		"grid.compile_us":                   t["study"].MeanUS("grid.compile"),
		"grid.run_self_us_per_row":          perRowUS("study", "grid.run"),
		"grid.encode_us_per_row":            perRowUS("study", "grid.encode"),
		"grid.bytes_per_row":                ratio(c["grid.bytes"], rows),
		"grid.rows_per_unit":                ratio(rows, c["grid.units"]),
		"grid.allocs_per_row":               ratio(un.counts["grid.mallocs"], un.counts["grid.rows"]),
		"core.batch_us_per_point":           perRowUS("study.core", "core.batch"),
		"core.process_us_per_draw":          ratio(float64(t["point.process"].SelfNS["core.process"])/1e3, c["core.process_draws"]),
		"core.cache_hit_ratio.point":        ratio(c["point.cache_hits"], c["point.cache_lookups"]),
		"core.cache_hit_ratio.study":        ratio(c["study.cache_hits"], c["study.cache_lookups"]),
		"cluster.walk_us_per_point":         perRowUS("study.cluster", "cluster.walk"),
		"outage.draw_us":                    t["point.outage"].MeanUS("outage.draw"),
		"outage.events_per_draw":            ratio(c["outage.events"], c["outage.draws"]),
		"resultstore.get_us":                t["rerun"].MeanUS("resultstore.get"),
		"resultstore.put_us":                t["rerun"].MeanUS("resultstore.put"),
		"resultstore.seal_ms":               t["rerun"].MeanUS("resultstore.seal") / 1e3,
		"resultstore.row_hit_ratio":         c["resultstore.row_hit_ratio"],
		"resultstore.scenario_hits_per_req": c["resultstore.scenario_hits_per_req"],
		"resultstore.puts_per_req":          c["resultstore.puts_per_req"],
		"resultstore.compactions_per_epoch": c["resultstore.compactions_per_epoch"],
		"resultstore.bytes_per_key":         c["resultstore.bytes_per_key"],
		"fabric.tax_us_per_row":             ratio(c["fabric.tax_ns"]/1e3, c["fabric.rows"]),
		"fabric.shards_per_req":             ratio(c["fabric.dispatched"], c["fabric.requests"]),
		"fabric.shard_p50_ms":               c["fabric.shard_p50_ms"],
		"fabric.hedge_share":                ratio(c["fabric.hedged"], c["fabric.dispatched"]),
		"fabric.retry_share":                ratio(c["fabric.retried"], c["fabric.dispatched"]),
		"fabric.worker_row_skew":            c["fabric.worker_row_skew"],
		"bench.gen_late_ms":                 un.counts["bench.gen_late_ms"],
	}
	for _, kind := range []string{"evaluate", "size", "best", "sweep"} {
		m["httpapi.handler_us."+kind] = t["point"].MeanUS("httpapi.handler." + kind)
	}
	for _, kind := range []string{"evaluate", "size", "best"} {
		m["core.eval_us."+kind] = t["point.core"].MeanUS("core.eval." + kind)
	}
	for _, w := range coverageWorkloads {
		m["bench.coverage."+w] = Coverage(tr.phases[w].Spans(), entryPrefix)
	}
	return m
}

func sumWalls(r *Replay) float64 {
	var s time.Duration
	for _, w := range r.walls {
		s += w
	}
	return s.Seconds()
}
