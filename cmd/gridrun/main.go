// Command gridrun evaluates a declarative sweep grid (internal/grid) from
// the command line: a figure's worth of scenario points in one
// invocation, streamed as NDJSON rows or rendered as a summary table.
// The same spec posted to a backupd's /v1/sweep streams the exact same
// row bytes — the two surfaces share the grid compiler, runner, and DTOs.
//
// The spec comes either from a JSON file (-spec FILE, "-" for stdin) or
// from axis flags:
//
//	gridrun -op best -workloads specjbb -configs MaxPerf,NoDG -outages 30s,5m,2h
//	gridrun -workloads web-search -configs LargeEUPS \
//	        -techniques 'throttling:pstate=2;sleep:low_power=true' -outages 30m
//	gridrun -op size -variants -outages 30s,30m,2h -format table
//
// -parallel sets the worker-pool width, -shard the emission batch size,
// and -no-batch disables the outage-axis batch kernel; none of them
// changes the output bytes. -store-dir persists evaluated rows in a
// result store, so rerunning a spec (or any overlapping spec) evaluates
// only rows the store has never seen — still byte-identical output;
// -store-stats prints the store's counters to stderr afterwards. Rows
// always stream in plan order (servers, workloads, configs, techniques,
// outages — outermost to innermost).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"backuppower/internal/core"
	"backuppower/internal/grid"
	"backuppower/internal/report"
	"backuppower/internal/resultstore"
	"backuppower/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse args, evaluate, write to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridrun", flag.ContinueOnError)
	fs.SetOutput(stderr)

	specPath := fs.String("spec", "", `JSON spec file ("-" = stdin); overrides the axis flags`)
	op := fs.String("op", "", "per-row call: evaluate (default), size, or best")
	serversFlag := fs.String("servers", "", "comma-separated cluster sizes (default 64)")
	workloads := fs.String("workloads", "", "comma-separated workload names")
	configs := fs.String("configs", "", "comma-separated Table 3 configuration names")
	techniques := fs.String("techniques", "", `semicolon-separated techniques, each "name" or "name:k=v,k=v"`)
	variants := fs.Bool("variants", false, "sweep the full Section 6 technique-variant set (Figures 6-9 axis)")
	outages := fs.String("outages", "", `comma-separated outage durations ("30s,5m,2h")`)
	processes := fs.String("processes", "",
		`stochastic outage-process axis as a JSON array (evaluate only; replaces -outages), e.g. `+
			`'[{"seed":42,"draws":16,"arrival":{"kind":"exponential","mean":"1500h"},"duration":{"kind":"empirical"}}]'`)
	zip := fs.Bool("zip", false, "pair axes element-wise instead of crossing them")
	maxRows := fs.Int("max-rows", 0, "tighten the compile-time row bound (0 = default)")
	sampleEvery := fs.Int("sample-every", 0, "keep every k-th row of the expanded grid")
	minOutage := fs.String("min-outage", "", "drop rows with a shorter outage")
	maxOutage := fs.String("max-outage", "", "drop rows with a longer outage")

	parallel := fs.Int("parallel", 0, "sweep worker-pool width (0 = GOMAXPROCS, 1 = serial); output is identical at any width")
	shard := fs.Int("shard", 0, "rows per emitted shard (0 = default); output is identical at any size")
	noBatch := fs.Bool("no-batch", false, "disable the outage-axis batch kernel (debug; output is identical either way)")
	timeout := fs.Duration("timeout", 0, "overall evaluation deadline (0 = none)")
	format := fs.String("format", "ndjson", "output format: ndjson or table")
	out := fs.String("o", "", "write output to a file instead of stdout")
	progress := fs.Bool("progress", false, "print per-shard progress to stderr")
	storeDir := fs.String("store-dir", "",
		"persistent result store directory (warm reruns skip stored rows; output bytes are identical)")
	storeStats := fs.Bool("store-stats", false, "print the store's stats JSON to stderr after the run")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storeStats && *storeDir == "" {
		fmt.Fprintln(stderr, "gridrun: -store-stats requires -store-dir")
		return 2
	}
	if *format != "ndjson" && *format != "table" {
		fmt.Fprintf(stderr, "gridrun: -format %q must be ndjson or table\n", *format)
		return 2
	}

	var spec grid.Spec
	if *specPath != "" {
		if err := grid.ReadSpec(*specPath, &spec); err != nil {
			fmt.Fprintf(stderr, "gridrun: %v\n", err)
			return 2
		}
	} else {
		var err error
		spec, err = specFromFlags(*op, *serversFlag, *workloads, *configs, *techniques,
			*variants, *outages, *processes, *zip, *maxRows, *sampleEvery, *minOutage, *maxOutage)
		if err != nil {
			fmt.Fprintf(stderr, "gridrun: %v\n", err)
			return 2
		}
	}

	const defaultServers = 64 // backupd's default scale, so CLI and HTTP rows match
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: defaultServers})
	if err != nil {
		fmt.Fprintf(stderr, "gridrun: %v\n", err)
		return 2
	}

	ctx := context.Background()
	if *parallel > 0 {
		ctx = sweep.WithWidth(ctx, *parallel)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "gridrun: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	opts := grid.RunOptions{ShardSize: *shard, NoBatch: *noBatch}
	if *progress {
		opts.Progress = func(p grid.Progress) {
			fmt.Fprintf(stderr, "gridrun: shard %d/%d (%d/%d rows)\n", p.Shard, p.Shards, p.RowsDone, p.Rows)
		}
	}
	if *storeDir != "" {
		store, err := resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "gridrun: -store-dir: %v\n", err)
			return 1
		}
		grid.SetRowStore(store)
		defer func() {
			// Detach before closing: run() is re-entrant (tests call it
			// repeatedly) and the global must not outlive the store.
			grid.SetRowStore(nil)
			if *storeStats {
				st := store.Stats()
				if b, err := json.Marshal(st); err == nil {
					fmt.Fprintf(stderr, "%s\n", b)
				}
			}
			store.Close()
		}()
	}
	runner := grid.NewRunner(core.New(defaultServers))

	switch *format {
	case "table":
		rows, err := runner.Run(ctx, plan, opts)
		if err != nil {
			fmt.Fprintf(stderr, "gridrun: %v\n", err)
			return 1
		}
		if err := renderTable(w, plan.Op, rows); err != nil {
			fmt.Fprintf(stderr, "gridrun: %v\n", err)
			return 1
		}
	default: // ndjson
		enc := json.NewEncoder(w)
		err := runner.RunStream(ctx, plan, opts, func(row grid.RowResult) error {
			return enc.Encode(grid.NewRowDTO(plan.Op, row))
		})
		if err != nil {
			fmt.Fprintf(stderr, "gridrun: %v\n", err)
			return 1
		}
	}
	return 0
}

// specFromFlags assembles a Spec from the axis flags.
func specFromFlags(op, servers, workloads, configs, techniques string, variants bool,
	outages, processes string, zip bool, maxRows, sampleEvery int, minOutage, maxOutage string) (grid.Spec, error) {
	spec := grid.Spec{
		Op:                op,
		Workloads:         splitList(workloads),
		Outages:           splitList(outages),
		TechniqueVariants: variants,
		Zip:               zip,
		MaxRows:           maxRows,
	}
	if processes != "" {
		if err := json.Unmarshal([]byte(processes), &spec.OutageProcesses); err != nil {
			return grid.Spec{}, fmt.Errorf("-processes: %w", err)
		}
	}
	for _, n := range splitList(servers) {
		v, err := strconv.Atoi(n)
		if err != nil {
			return grid.Spec{}, fmt.Errorf("-servers: %q is not an integer", n)
		}
		spec.Servers = append(spec.Servers, v)
	}
	for _, name := range splitList(configs) {
		spec.Configs = append(spec.Configs, grid.ConfigDTO{Name: name})
	}
	if techniques != "" {
		for _, s := range strings.Split(techniques, ";") {
			d, err := parseTechniqueFlag(strings.TrimSpace(s))
			if err != nil {
				return grid.Spec{}, err
			}
			spec.Techniques = append(spec.Techniques, d)
		}
	}
	if sampleEvery != 0 || minOutage != "" || maxOutage != "" {
		spec.Filter = &grid.Filter{
			MinOutage:   minOutage,
			MaxOutage:   maxOutage,
			SampleEvery: sampleEvery,
		}
	}
	return spec, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseTechniqueFlag parses one "name" or "name:k=v,k=v" technique flag
// element into the wire DTO the resolver validates.
func parseTechniqueFlag(s string) (grid.TechniqueDTO, error) {
	name, params, _ := strings.Cut(s, ":")
	d := grid.TechniqueDTO{Name: strings.TrimSpace(name)}
	if params == "" {
		return d, nil
	}
	for _, kv := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return d, fmt.Errorf("-techniques: %q: parameter %q is not k=v", s, kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "pstate":
			n, err := strconv.Atoi(v)
			if err != nil {
				return d, fmt.Errorf("-techniques: %q: pstate %q is not an integer", s, v)
			}
			d.PState = &n
		case "low_power", "proactive", "throttle_deep":
			b, err := strconv.ParseBool(v)
			if err != nil {
				return d, fmt.Errorf("-techniques: %q: %s %q is not a bool", s, k, v)
			}
			switch k {
			case "low_power":
				d.LowPower = &b
			case "proactive":
				d.Proactive = &b
			default:
				d.ThrottleDeep = &b
			}
		case "save":
			d.Save = v
		case "active_fraction":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return d, fmt.Errorf("-techniques: %q: active_fraction %q is not a number", s, v)
			}
			d.ActiveFraction = &f
		case "budget":
			d.Budget = v
		default:
			return d, fmt.Errorf("-techniques: %q: unknown parameter %q", s, k)
		}
	}
	return d, nil
}

// renderTable folds collected rows into one summary table per op.
func renderTable(w io.Writer, op string, rows []grid.RowResult) error {
	t := report.Table{Title: fmt.Sprintf("Sweep (%s, %d rows)", op, len(rows))}
	switch op {
	case grid.OpSize:
		t.Columns = []string{"Servers", "Workload", "Family", "Technique", "Outage", "Feasible", "NormCost", "UPS kW", "Runtime"}
		for _, r := range rows {
			if r.Err != nil {
				t.AddRow(r.Point.Servers, r.Point.Workload.Name, r.Point.Family, techName(r), r.Point.Outage, "error: "+r.Err.Error(), "-", "-", "-")
				continue
			}
			if !r.Feasible {
				t.AddRow(r.Point.Servers, r.Point.Workload.Name, r.Point.Family, techName(r), r.Point.Outage, "no", "-", "-", "-")
				continue
			}
			t.AddRow(r.Point.Servers, r.Point.Workload.Name, r.Point.Family, r.Sizing.Technique, r.Point.Outage,
				"yes", r.Sizing.NormCost,
				fmt.Sprintf("%.1f", float64(r.Sizing.Backup.UPS.PowerCapacity)/1000),
				r.Sizing.Backup.UPS.Runtime)
		}
	case grid.OpBest:
		t.Columns = []string{"Servers", "Workload", "Config", "Outage", "Best", "Perf", "Downtime"}
		for _, r := range rows {
			if r.Err != nil {
				t.AddRow(r.Point.Servers, r.Point.Workload.Name, r.Point.Config.Name, r.Point.Outage, "error: "+r.Err.Error(), "-", "-")
				continue
			}
			t.AddRow(r.Point.Servers, r.Point.Workload.Name, r.Point.Config.Name, r.Point.Outage, r.Best, r.Result.Perf, r.Result.Downtime)
		}
	default: // evaluate
		t.Columns = []string{"Servers", "Workload", "Config", "Technique", "Outage", "Survived", "Perf", "Downtime"}
		for _, r := range rows {
			outage := outageCell(r)
			if r.Err != nil {
				t.AddRow(r.Point.Servers, r.Point.Workload.Name, r.Point.Config.Name, techName(r), outage, "error: "+r.Err.Error(), "-", "-")
				continue
			}
			if r.Process != nil {
				// Process rows: survival rate, duration-weighted perf, and
				// expected yearly downtime instead of the point columns.
				t.AddRow(r.Point.Servers, r.Point.Workload.Name, r.Point.Config.Name, techName(r), outage,
					fmt.Sprintf("%.3f", r.Process.SurvivalRate), r.Process.Perf, r.Process.ExpectedDowntime)
				continue
			}
			survived := "no"
			if r.Result.Survived {
				survived = "yes"
			}
			t.AddRow(r.Point.Servers, r.Point.Workload.Name, r.Point.Config.Name, techName(r), outage, survived, r.Result.Perf, r.Result.Downtime)
		}
	}
	return t.Render(w)
}

// outageCell renders a row's outage coordinate: the point duration, or a
// compact spec summary for stochastic-process rows.
func outageCell(r grid.RowResult) any {
	if p := r.Point.Process; p != nil {
		return fmt.Sprintf("%s/%s seed=%d draws=%d", p.Arrival.Kind, p.Duration.Kind, p.Seed, p.Draws)
	}
	return r.Point.Outage
}

func techName(r grid.RowResult) string {
	if r.Point.Technique == nil {
		return "-"
	}
	return r.Point.Technique.Name()
}
