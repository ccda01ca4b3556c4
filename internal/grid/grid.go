// Package grid turns the paper's evaluation cross-products — techniques ×
// workloads × outage durations × cluster sizes × backup configurations
// (Figures 5-9, Tables 4-6) — into declarative sweep specs: a Spec names
// the axes, Compile expands it into a deterministic, ordered execution
// plan, and a Runner streams the plan's rows through the shared sweep
// engine in fixed-size shards. One spec drives every surface the repo
// exposes: POST /v1/sweep in internal/httpapi, the cmd/gridrun CLI, and
// the internal/experiments figure generators.
//
// Determinism is the contract, exactly as for internal/sweep: rows are
// always produced in plan order — the cross-product enumerates axes
// outermost-to-innermost as servers, workloads, configs, techniques,
// outages — regardless of the worker-pool width or shard size, so two
// runs of the same spec are byte-identical however they are parallelized
// or batched. Every row routes through core's shared scenario memo cache,
// so overlapping specs (and repeated runs) warm each other.
package grid

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/cost"
	"backuppower/internal/outage"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// Ops a spec can request: one framework call per row.
const (
	// OpEvaluate runs one scenario per row (config × technique ×
	// workload × outage × servers): core.EvaluateCtx.
	OpEvaluate = "evaluate"
	// OpSize finds the min-cost UPS-only backup per row (technique ×
	// workload × outage × servers): core.MinCostUPSCtx. Configs must be
	// absent — the sizing search supplies the configuration.
	OpSize = "size"
	// OpBest races every technique behind a fixed config per row
	// (config × workload × outage × servers): core.BestForConfigCtx.
	// Techniques must be absent — the race supplies the technique.
	OpBest = "best"
)

// DefaultMaxRows bounds how many rows a compiled plan may hold before
// filtering. Oversize cross-products are a request mistake (or an abuse
// vector on the serving layer), not a workload; the bound is checked from
// the axis lengths alone, before any row is materialized.
const DefaultMaxRows = 100_000

// Spec declares a sweep grid. Axes with multiple values multiply (or zip);
// absent optional axes fall back to defaults. All quantities are
// human-readable strings parsed through internal/units, so a Spec is
// directly JSON-decodable — the wire format of POST /v1/sweep and
// cmd/gridrun -spec.
type Spec struct {
	// Op selects the per-row framework call: "evaluate" (default),
	// "size", or "best".
	Op string `json:"op,omitempty"`

	// Servers is the cluster-size axis (the paper's default testbed
	// scaled to each count). Empty means the runner's default scale.
	Servers []int `json:"servers,omitempty"`

	// Workloads names calibrated workloads (GET /v1/workloads). Required.
	Workloads []string `json:"workloads,omitempty"`

	// Configs is the backup-configuration axis: Table 3 names or custom
	// DG/UPS capacities. Required for evaluate and best; must be absent
	// for size. Named configurations scale with each row's cluster size.
	Configs []ConfigDTO `json:"configs,omitempty"`

	// Techniques is the technique axis. Required for evaluate and size
	// (unless TechniqueVariants is set); must be absent for best.
	Techniques []TechniqueDTO `json:"techniques,omitempty"`

	// TechniqueVariants replaces the Techniques axis with the full
	// Section 6 variant set the figures sweep (core.TechVariants), each
	// row labeled with its family — the axis behind Figures 6-9.
	TechniqueVariants bool `json:"technique_variants,omitempty"`

	// Outages is the outage-duration axis ("30s", "5m", "2h"). Either it
	// or OutageProcesses is required; never both.
	Outages []string `json:"outages,omitempty"`

	// OutageProcesses is the stochastic outage-process axis (ROADMAP
	// 4(a)): each entry is a seeded Monte-Carlo process whose drawn
	// yearly traces evaluate through core.EvaluateProcessCtx instead of a
	// single point duration. Evaluate-only; mutually exclusive with
	// Outages.
	OutageProcesses []ProcessDTO `json:"outage_processes,omitempty"`

	// Zip pairs the axes element-wise instead of crossing them: every
	// present axis must have the same length L, and row i takes element
	// i of each. Absent axes contribute their default to every row.
	Zip bool `json:"zip,omitempty"`

	// Filter optionally drops rows from the expanded grid.
	Filter *Filter `json:"filter,omitempty"`

	// MaxRows tightens the compile-time row bound below the compiler's
	// (it can never loosen it). 0 means no request-side tightening.
	MaxRows int `json:"max_rows,omitempty"`
}

// Filter drops rows from an expanded grid before execution. Filtering
// happens after the row bound is checked: the bound is about the size of
// the declared product, the filter about which of its rows run.
type Filter struct {
	// MinOutage / MaxOutage keep only rows whose outage lies in the
	// inclusive band.
	MinOutage string `json:"min_outage,omitempty"`
	MaxOutage string `json:"max_outage,omitempty"`

	// SampleEvery keeps every k-th row of the expanded grid (by
	// pre-filter position) — cheap deterministic downsampling of a dense
	// product. 0 and 1 keep everything.
	SampleEvery int `json:"sample_every,omitempty"`
}

// Point is one fully resolved row of a compiled plan.
type Point struct {
	// Index is the row's position among the rows that survived
	// filtering — the order results stream in.
	Index int

	Servers  int
	Workload workload.Spec

	// Config is resolved against this row's cluster size (named Table 3
	// configurations scale with peak power). HasConfig is false for size
	// rows, where the search supplies the configuration.
	Config    cost.Backup
	HasConfig bool

	// Technique is nil for best rows, where the race supplies it.
	// Family is set when the spec used TechniqueVariants.
	Technique technique.Technique
	Family    string

	// Outage is the point outage duration; zero for process rows, where
	// Process carries the resolved stochastic outage process instead.
	Outage  time.Duration
	Process *outage.Process
}

// Plan is a compiled spec: the ordered rows plus the op they run.
type Plan struct {
	Op     string
	Points []Point
}

// ReadSpec strictly decodes a spec file ("-" reads stdin), as
// cmd/gridrun -spec and cmd/sweepfront -spec take it: unknown fields and
// trailing data are rejected.
func ReadSpec(path string, spec *Spec) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("spec: trailing data after JSON document")
	}
	return nil
}

// CompileOptions parameterize Compile.
type CompileOptions struct {
	// DefaultServers is the cluster size used when the spec has no
	// servers axis (required, >= 1).
	DefaultServers int

	// MaxRows caps the expanded (pre-filter) row count; 0 means
	// DefaultMaxRows. A spec's own MaxRows can tighten but not exceed it.
	MaxRows int
}

// Compile expands a spec into its deterministic execution plan: axes are
// validated and resolved (every error is a typed *FieldError naming the
// offending field), the pre-filter row count is checked against the
// bound without materializing anything, and the surviving rows are
// enumerated in canonical order. Plans evaluate the paper's default
// testbed scaled to each row's server count.
func Compile(spec Spec, opt CompileOptions) (*Plan, error) {
	plan, _, err := compile(spec, opt, nil)
	return plan, err
}

// CompileRange is Compile restricted to the surviving rows r: every
// validation, axis resolution, row bound and filter decision still runs
// over the whole cross product, but only the Points whose index lies in
// [r.Start, r.End) are materialized, each keeping its absolute Index.
// The result equals Compile(spec, opt) followed by Plan.Slice(r) —
// including the *FieldError for a range outside the plan — at a cost of
// O(range) points instead of O(plan). planRows is the full plan's row
// count. It is how a fabric worker compiles just its shard.
func CompileRange(spec Spec, opt CompileOptions, r RowRange) (plan *Plan, planRows int, err error) {
	return compile(spec, opt, &r)
}

// compile is the one enumeration behind Compile and CompileRange: with a
// nil part it materializes every surviving row, otherwise only those in
// *part. planRows is the surviving row count of the whole plan either way.
func compile(spec Spec, opt CompileOptions, part *RowRange) (*Plan, int, error) {
	op := spec.Op
	if op == "" {
		op = OpEvaluate
	}
	switch op {
	case OpEvaluate, OpSize, OpBest:
	default:
		return nil, 0, fieldErrf("invalid_field", "op",
			"unknown op %q (known: %s, %s, %s)", spec.Op, OpEvaluate, OpSize, OpBest)
	}

	// Axis applicability by op.
	if op == OpSize && len(spec.Configs) > 0 {
		return nil, 0, fieldErrf("invalid_field", "configs",
			"configs do not apply to op %q — the sizing search supplies the configuration", op)
	}
	if op == OpBest && (len(spec.Techniques) > 0 || spec.TechniqueVariants) {
		return nil, 0, fieldErrf("invalid_field", "techniques",
			"techniques do not apply to op %q — the race supplies the technique", op)
	}
	if spec.TechniqueVariants && len(spec.Techniques) > 0 {
		return nil, 0, fieldErrf("invalid_field", "techniques",
			"give either an explicit techniques axis or technique_variants, not both")
	}
	if spec.TechniqueVariants && spec.Zip {
		return nil, 0, fieldErrf("invalid_field", "technique_variants",
			"technique_variants cannot be zipped; use a cross-product spec")
	}
	if len(spec.OutageProcesses) > 0 {
		if len(spec.Outages) > 0 {
			return nil, 0, fieldErrf("invalid_field", "outage_processes",
				"give either an outages axis or an outage_processes axis, not both")
		}
		if op != OpEvaluate {
			return nil, 0, fieldErrf("invalid_field", "outage_processes",
				"outage processes do not apply to op %q — only %q evaluates a stochastic process", op, OpEvaluate)
		}
		if spec.Filter != nil && (spec.Filter.MinOutage != "" || spec.Filter.MaxOutage != "") {
			return nil, 0, fieldErrf("invalid_field", "filter.min_outage",
				"outage-band filters do not apply to an outage_processes axis")
		}
	}

	// Servers axis (defaulted) and per-count environments.
	servers := spec.Servers
	if len(servers) == 0 {
		if opt.DefaultServers < 1 {
			return nil, 0, fieldErrf("invalid_field", "servers",
				"no servers axis and no usable default (%d)", opt.DefaultServers)
		}
		servers = []int{opt.DefaultServers}
	}
	envs := make([]technique.Env, len(servers))
	for i, n := range servers {
		if n < 1 {
			return nil, 0, fieldErrf("out_of_range", axisField("servers", i),
				"%d servers (need >= 1)", n)
		}
		envs[i] = technique.DefaultEnv(n)
	}

	// Workloads axis.
	if len(spec.Workloads) == 0 {
		return nil, 0, fieldErrf("missing_field", "workloads", "at least one workload is required")
	}
	workloads := make([]workload.Spec, len(spec.Workloads))
	for i, name := range spec.Workloads {
		w, err := ResolveWorkload(name)
		if err != nil {
			return nil, 0, refield(err, axisField("workloads", i))
		}
		workloads[i] = w
	}

	// Outage axis: point durations or stochastic processes, never both
	// (checked above).
	if len(spec.Outages) == 0 && len(spec.OutageProcesses) == 0 {
		return nil, 0, fieldErrf("missing_field", "outages",
			"at least one outage duration (outages) or stochastic process (outage_processes) is required")
	}
	type outPoint struct {
		dur  time.Duration
		proc *outage.Process
	}
	outAxis := make([]outPoint, 0, len(spec.Outages)+len(spec.OutageProcesses))
	for i, s := range spec.Outages {
		d, err := ParseOutage(s)
		if err != nil {
			return nil, 0, refield(err, axisField("outages", i))
		}
		outAxis = append(outAxis, outPoint{dur: d})
	}
	for i, d := range spec.OutageProcesses {
		p, err := ResolveProcess(d)
		if err != nil {
			return nil, 0, refield(err, axisField("outage_processes", i))
		}
		outAxis = append(outAxis, outPoint{proc: p})
	}

	// Techniques axis (explicit instances or the figures' variant set).
	type techPoint struct {
		tech   technique.Technique
		family string
	}
	var techs []techPoint
	switch {
	case op == OpBest:
		techs = []techPoint{{}} // the race supplies the technique
	case spec.TechniqueVariants:
		for _, v := range core.New(1).TechVariants() {
			techs = append(techs, techPoint{tech: v.Tech, family: v.Family})
		}
	default:
		if len(spec.Techniques) == 0 {
			return nil, 0, fieldErrf("missing_field", "techniques",
				"op %q needs a techniques axis (or technique_variants)", op)
		}
		deepest := len(technique.DefaultEnv(1).Server.PStates) - 1
		for i, d := range spec.Techniques {
			tech, err := ResolveTechnique(d, deepest)
			if err != nil {
				return nil, 0, refield(err, axisField("techniques", i))
			}
			techs = append(techs, techPoint{tech: tech})
		}
	}

	// Configs axis, resolved per cluster size (named configurations
	// scale with the environment's peak power).
	nconfigs := len(spec.Configs)
	if op == OpSize {
		nconfigs = 1 // placeholder column: size rows carry no config
	} else if nconfigs == 0 {
		return nil, 0, fieldErrf("missing_field", "configs",
			"op %q needs a configs axis: Table 3 names or custom capacities", op)
	}
	var configs [][]cost.Backup // [servers index][config index]
	if op != OpSize {
		configs = make([][]cost.Backup, len(envs))
		for si, env := range envs {
			configs[si] = make([]cost.Backup, len(spec.Configs))
			for ci, d := range spec.Configs {
				b, err := ResolveConfig(d, env.PeakPower())
				if err != nil {
					return nil, 0, refield(err, axisField("configs", ci))
				}
				configs[si][ci] = b
			}
		}
	}

	// Row bound, from axis lengths alone (overflow-safe: every axis
	// length is bounded by the decoded spec's size, and the running
	// product is capped the moment it crosses the bound).
	maxRows := opt.MaxRows
	if maxRows <= 0 {
		maxRows = DefaultMaxRows
	}
	if spec.MaxRows < 0 {
		return nil, 0, fieldErrf("out_of_range", "max_rows", "max_rows %d must be >= 0", spec.MaxRows)
	}
	if spec.MaxRows > 0 && spec.MaxRows < maxRows {
		maxRows = spec.MaxRows
	}
	lens := []int{len(servers), len(workloads), nconfigs, len(techs), len(outAxis)}
	var total int
	if spec.Zip {
		var err error
		if total, err = zipLength(spec, lens); err != nil {
			return nil, 0, err
		}
	} else {
		total = 1
		for _, n := range lens {
			if total > maxRows/n {
				return nil, 0, fieldErrf("too_many_rows", "max_rows",
					"grid expands past the %d-row bound (%s); shrink an axis, raise max_rows within the server's bound, or split the sweep",
					maxRows, productString(lens))
			}
			total *= n
		}
	}
	if total > maxRows {
		return nil, 0, fieldErrf("too_many_rows", "max_rows",
			"grid expands to %d rows, past the %d-row bound; shrink an axis or split the sweep", total, maxRows)
	}

	filter, err := compileFilter(spec.Filter)
	if err != nil {
		return nil, 0, err
	}

	// Count the surviving rows first, so Points is allocated once at its
	// exact size. The filter decides on the pre-filter position and the
	// outage alone, and position pre always has outage
	// outAxis[pre%len(outAxis)]: outages are innermost in cross order,
	// and a zip longer than one row runs every longer axis, outages
	// included, with the position.
	rows := 0
	for pre := range total {
		if filter.keep(pre, outAxis[pre%len(outAxis)].dur) {
			rows++
		}
	}
	lo, hi := 0, rows
	if part != nil {
		if err := checkRange(*part, rows); err != nil {
			return nil, 0, err
		}
		lo, hi = part.Start, part.End
	}
	plan := &Plan{Op: op}
	if hi > lo {
		plan.Points = make([]Point, 0, hi-lo)
	}

	// Enumerate. Cross order, outermost to innermost: servers,
	// workloads, configs, techniques, outages. Every surviving row is
	// numbered, but only the rows inside the requested range become
	// Points.
	pre, next := 0, 0
	add := func(si, wi, ci, ti, oi int) {
		keep := filter.keep(pre, outAxis[oi].dur)
		pre++
		if !keep {
			return
		}
		idx := next
		next++
		if idx < lo || idx >= hi {
			return
		}
		p := Point{
			Index:    idx,
			Servers:  servers[si],
			Workload: workloads[wi],
			Outage:   outAxis[oi].dur,
			Process:  outAxis[oi].proc,
		}
		if op != OpSize {
			p.Config, p.HasConfig = configs[si][ci], true
		}
		if op != OpBest {
			p.Technique, p.Family = techs[ti].tech, techs[ti].family
		}
		plan.Points = append(plan.Points, p)
	}
	if spec.Zip {
		pick := func(n, i int) int {
			if n == 1 {
				return 0
			}
			return i
		}
		for i := 0; i < total; i++ {
			add(pick(lens[0], i), pick(lens[1], i), pick(lens[2], i), pick(lens[3], i), pick(lens[4], i))
		}
	} else {
		for si := range servers {
			for wi := range workloads {
				for ci := 0; ci < nconfigs; ci++ {
					for ti := range techs {
						for oi := range outAxis {
							add(si, wi, ci, ti, oi)
						}
					}
				}
			}
		}
	}
	return plan, rows, nil
}

// zipLength validates the zip contract: every axis longer than one row
// must agree on one length L (length-1 axes and defaults broadcast).
func zipLength(spec Spec, lens []int) (int, error) {
	names := []string{"servers", "workloads", "configs", "techniques", "outages"}
	if len(spec.OutageProcesses) > 0 {
		names[4] = "outage_processes"
	}
	L := 1
	for i, n := range lens {
		if n <= 1 {
			continue
		}
		if L == 1 {
			L = n
			continue
		}
		if n != L {
			return 0, fieldErrf("invalid_field", names[i],
				"zip axes disagree on length: %s has %d rows, earlier axes have %d", names[i], n, L)
		}
	}
	return L, nil
}

// compiledFilter is a Filter with its durations parsed.
type compiledFilter struct {
	minOutage, maxOutage time.Duration
	hasMax               bool
	sampleEvery          int
}

func compileFilter(f *Filter) (compiledFilter, error) {
	var c compiledFilter
	if f == nil {
		return c, nil
	}
	var err error
	if f.MinOutage != "" {
		if c.minOutage, err = parseFilterDuration(f.MinOutage, "filter.min_outage"); err != nil {
			return c, err
		}
	}
	if f.MaxOutage != "" {
		if c.maxOutage, err = parseFilterDuration(f.MaxOutage, "filter.max_outage"); err != nil {
			return c, err
		}
		c.hasMax = true
	}
	if f.SampleEvery < 0 {
		return c, fieldErrf("out_of_range", "filter.sample_every",
			"sample_every %d must be >= 0", f.SampleEvery)
	}
	c.sampleEvery = f.SampleEvery
	return c, nil
}

// keep reports whether the row at pre-filter position pre, with point
// outage d, survives.
func (c compiledFilter) keep(pre int, d time.Duration) bool {
	if d < c.minOutage {
		return false
	}
	if c.hasMax && d > c.maxOutage {
		return false
	}
	if c.sampleEvery > 1 && pre%c.sampleEvery != 0 {
		return false
	}
	return true
}

func axisField(axis string, i int) string {
	return fmt.Sprintf("%s[%d]", axis, i)
}

func productString(lens []int) string {
	return fmt.Sprintf("%d servers x %d workloads x %d configs x %d techniques x %d outages",
		lens[0], lens[1], lens[2], lens[3], lens[4])
}
