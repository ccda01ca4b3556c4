package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/sweep"
)

func intp(v int) *int           { return &v }
func boolp(v bool) *bool        { return &v }
func floatp(v float64) *float64 { return &v }

func compileOK(t *testing.T, spec Spec) *Plan {
	t.Helper()
	plan, err := Compile(spec, CompileOptions{DefaultServers: 8})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return plan
}

func TestCompileCrossOrder(t *testing.T) {
	plan := compileOK(t, Spec{
		Workloads: []string{"specjbb", "memcached"},
		Configs:   []ConfigDTO{{Name: "MaxPerf"}, {Name: "NoDG"}},
		Techniques: []TechniqueDTO{
			{Name: "baseline"},
			{Name: "throttling", PState: intp(2)},
		},
		Outages: []string{"30s", "5m"},
	})
	if plan.Op != OpEvaluate {
		t.Fatalf("default op = %q", plan.Op)
	}
	if len(plan.Points) != 2*2*2*2 {
		t.Fatalf("got %d points, want 16", len(plan.Points))
	}
	// Innermost axis is outages, then techniques, then configs, then
	// workloads; the servers axis defaulted to one value.
	p0, p1, p2 := plan.Points[0], plan.Points[1], plan.Points[2]
	if p0.Outage != 30*time.Second || p1.Outage != 5*time.Minute {
		t.Fatalf("outage order wrong: %v then %v", p0.Outage, p1.Outage)
	}
	if p0.Technique.Name() != p1.Technique.Name() || p2.Technique.Name() == p0.Technique.Name() {
		t.Fatalf("technique should advance after outages: %s, %s, %s",
			p0.Technique.Name(), p1.Technique.Name(), p2.Technique.Name())
	}
	if p0.Servers != 8 {
		t.Fatalf("default servers = %d, want 8", p0.Servers)
	}
	last := plan.Points[15]
	if last.Workload.Name != "memcached" || last.Config.Name != "NoDG" || last.Outage != 5*time.Minute {
		t.Fatalf("last point wrong: %+v", last)
	}
	for i, p := range plan.Points {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if !p.HasConfig {
			t.Fatalf("evaluate point %d missing config", i)
		}
	}
}

func TestCompileZipAndBroadcast(t *testing.T) {
	plan := compileOK(t, Spec{
		Op:         OpEvaluate,
		Workloads:  []string{"specjbb", "memcached", "web-search"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}}, // length-1 axes broadcast
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s", "5m", "2h"},
		Zip:        true,
	})
	if len(plan.Points) != 3 {
		t.Fatalf("zip of 3-row axes gave %d rows", len(plan.Points))
	}
	for i, wantW := range []string{"specjbb", "memcached", "web-search"} {
		if plan.Points[i].Workload.Name != wantW {
			t.Fatalf("row %d workload %q, want %q", i, plan.Points[i].Workload.Name, wantW)
		}
		if plan.Points[i].Config.Name != "MaxPerf" {
			t.Fatalf("row %d config not broadcast", i)
		}
	}
	if plan.Points[2].Outage != 2*time.Hour {
		t.Fatalf("row 2 outage %v", plan.Points[2].Outage)
	}
}

func TestCompileServersAxis(t *testing.T) {
	plan := compileOK(t, Spec{
		Servers:    []int{4, 16},
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s"},
	})
	if len(plan.Points) != 2 {
		t.Fatalf("got %d points", len(plan.Points))
	}
	// Named configurations must scale with each row's cluster size.
	small, big := plan.Points[0], plan.Points[1]
	if small.Servers != 4 || big.Servers != 16 {
		t.Fatalf("server order: %d, %d", small.Servers, big.Servers)
	}
	if small.Config.UPS.PowerCapacity >= big.Config.UPS.PowerCapacity {
		t.Fatalf("MaxPerf did not scale with cluster size: %v vs %v",
			small.Config.UPS.PowerCapacity, big.Config.UPS.PowerCapacity)
	}
}

func TestCompileTechniqueVariants(t *testing.T) {
	plan := compileOK(t, Spec{
		Op:                OpSize,
		Workloads:         []string{"specjbb"},
		TechniqueVariants: true,
		Outages:           []string{"30s", "30m"},
	})
	nvariants := len(core.New(1).TechVariants())
	if len(plan.Points) != nvariants*2 {
		t.Fatalf("got %d points, want %d", len(plan.Points), nvariants*2)
	}
	for _, p := range plan.Points {
		if p.Family == "" {
			t.Fatalf("variant point without family: %+v", p)
		}
		if p.HasConfig {
			t.Fatal("size point carries a config")
		}
	}
}

func TestCompileBestOp(t *testing.T) {
	plan := compileOK(t, Spec{
		Op:        OpBest,
		Workloads: []string{"specjbb"},
		Configs:   []ConfigDTO{{Name: "MaxPerf"}},
		Outages:   []string{"30s"},
	})
	if len(plan.Points) != 1 || plan.Points[0].Technique != nil {
		t.Fatalf("best plan wrong: %+v", plan.Points)
	}
}

func TestCompileCustomConfig(t *testing.T) {
	plan := compileOK(t, Spec{
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{UPSPower: "10kW", UPSRuntime: "20m"}},
		Techniques: []TechniqueDTO{{Name: "sleep", LowPower: boolp(true)}},
		Outages:    []string{"10m"},
	})
	b := plan.Points[0].Config
	if b.UPS.PowerCapacity != 10000 || b.UPS.Runtime != 20*time.Minute || b.DG.Provisioned() {
		t.Fatalf("custom config wrong: %+v", b)
	}
}

func TestCompileFilter(t *testing.T) {
	base := Spec{
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s", "5m", "30m", "2h"},
	}

	spec := base
	spec.Filter = &Filter{MinOutage: "1m", MaxOutage: "1h"}
	plan := compileOK(t, spec)
	if len(plan.Points) != 2 {
		t.Fatalf("band filter kept %d rows", len(plan.Points))
	}
	if plan.Points[0].Outage != 5*time.Minute || plan.Points[0].Index != 0 {
		t.Fatalf("filtered rows misnumbered: %+v", plan.Points[0])
	}

	spec = base
	spec.Filter = &Filter{SampleEvery: 2}
	plan = compileOK(t, spec)
	if len(plan.Points) != 2 || plan.Points[0].Outage != 30*time.Second || plan.Points[1].Outage != 30*time.Minute {
		t.Fatalf("sampling filter wrong: %+v", plan.Points)
	}
}

func TestCompileMaxRows(t *testing.T) {
	spec := Spec{
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s", "5m", "30m"},
		MaxRows:    2,
	}
	_, err := Compile(spec, CompileOptions{DefaultServers: 8})
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Code != "too_many_rows" {
		t.Fatalf("want too_many_rows, got %v", err)
	}
	// The request bound can tighten the compiler's but never loosen it.
	spec.MaxRows = 1 << 40
	if _, err := Compile(spec, CompileOptions{DefaultServers: 8, MaxRows: 2}); err == nil {
		t.Fatal("request max_rows loosened the compiler bound")
	}
}

func TestCompileOversizeCrossProduct(t *testing.T) {
	// Huge declared axes must be rejected from the lengths alone — before
	// any row is materialized — without overflow.
	many := make([]string, 10000)
	for i := range many {
		many[i] = "30s"
	}
	servers := make([]int, 10000)
	for i := range servers {
		servers[i] = 1 + i
	}
	spec := Spec{
		Servers:    servers,
		Workloads:  []string{"specjbb", "memcached", "web-search", "speccpu-mcf8"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}, {Name: "NoDG"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    many,
	}
	_, err := Compile(spec, CompileOptions{DefaultServers: 8})
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Code != "too_many_rows" {
		t.Fatalf("want too_many_rows, got %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	valid := Spec{
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s"},
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		code   string
		field  string
	}{
		{"unknown op", func(s *Spec) { s.Op = "minimize" }, "invalid_field", "op"},
		{"size with configs", func(s *Spec) { s.Op = OpSize }, "invalid_field", "configs"},
		{"best with techniques", func(s *Spec) { s.Op = OpBest }, "invalid_field", "techniques"},
		{"variants plus explicit", func(s *Spec) { s.TechniqueVariants = true }, "invalid_field", "techniques"},
		{"variants zipped", func(s *Spec) { s.Techniques = nil; s.TechniqueVariants = true; s.Zip = true },
			"invalid_field", "technique_variants"},
		{"bad server count", func(s *Spec) { s.Servers = []int{8, 0} }, "out_of_range", "servers[1]"},
		{"no workloads", func(s *Spec) { s.Workloads = nil }, "missing_field", "workloads"},
		{"unknown workload", func(s *Spec) { s.Workloads = []string{"specjbb", "doom"} },
			"unknown_workload", "workloads[1]"},
		{"no outages", func(s *Spec) { s.Outages = nil }, "missing_field", "outages"},
		{"bad outage", func(s *Spec) { s.Outages = []string{"30s", "soon"} }, "invalid_duration", "outages[1]"},
		{"negative outage", func(s *Spec) { s.Outages = []string{"-5m"} }, "out_of_range", "outages[0]"},
		{"absurd outage", func(s *Spec) { s.Outages = []string{"900h"} }, "out_of_range", "outages[0]"},
		{"no techniques", func(s *Spec) { s.Techniques = nil }, "missing_field", "techniques"},
		{"unknown technique", func(s *Spec) { s.Techniques = []TechniqueDTO{{Name: "prayer"}} },
			"unknown_technique", "techniques[0].name"},
		{"inapplicable param", func(s *Spec) { s.Techniques = []TechniqueDTO{{Name: "baseline", PState: intp(2)}} },
			"invalid_field", "techniques[0].pstate"},
		{"pstate out of range", func(s *Spec) { s.Techniques = []TechniqueDTO{{Name: "throttling", PState: intp(99)}} },
			"out_of_range", "techniques[0].pstate"},
		{"bad save kind", func(s *Spec) {
			s.Techniques = []TechniqueDTO{{Name: "throttle-then-save", PState: intp(2), Save: "pause"}}
		}, "invalid_field", "techniques[0].save"},
		{"bad active fraction", func(s *Spec) {
			s.Techniques = []TechniqueDTO{{Name: "migration-then-sleep", ActiveFraction: floatp(1.5)}}
		}, "out_of_range", "techniques[0].active_fraction"},
		{"no configs", func(s *Spec) { s.Configs = nil }, "missing_field", "configs"},
		{"unknown config", func(s *Spec) { s.Configs = []ConfigDTO{{Name: "Cheapest"}} },
			"unknown_config", "configs[0].name"},
		{"config both forms", func(s *Spec) { s.Configs = []ConfigDTO{{Name: "MaxPerf", DGPower: "1MW"}} },
			"invalid_config", "configs[0]"},
		{"bad config power", func(s *Spec) { s.Configs = []ConfigDTO{{UPSPower: "ten"}} },
			"invalid_power", "configs[0].ups_power"},
		{"runtime without power", func(s *Spec) { s.Configs = []ConfigDTO{{UPSRuntime: "30m"}} },
			"invalid_config", "configs[0].ups_runtime"},
		{"absurd capacity", func(s *Spec) { s.Configs = []ConfigDTO{{UPSPower: "900GW"}} },
			"out_of_range", "configs[0]"},
		{"zip length mismatch", func(s *Spec) {
			s.Zip = true
			s.Workloads = []string{"specjbb", "memcached"}
			s.Outages = []string{"30s", "5m", "2h"}
		}, "invalid_field", "outages"},
		{"negative max rows", func(s *Spec) { s.MaxRows = -1 }, "out_of_range", "max_rows"},
		{"bad filter duration", func(s *Spec) { s.Filter = &Filter{MinOutage: "soon"} },
			"invalid_duration", "filter.min_outage"},
		{"bad filter max", func(s *Spec) { s.Filter = &Filter{MaxOutage: "later"} },
			"invalid_duration", "filter.max_outage"},
		{"negative sampling", func(s *Spec) { s.Filter = &Filter{SampleEvery: -2} },
			"out_of_range", "filter.sample_every"},
		{"bad budget", func(s *Spec) {
			s.Techniques = []TechniqueDTO{{Name: "capped-throttling", Budget: "lots"}}
		}, "invalid_power", "techniques[0].budget"},
		{"missing technique name", func(s *Spec) { s.Techniques = []TechniqueDTO{{}} },
			"missing_field", "techniques[0].name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := valid
			tc.mutate(&spec)
			_, err := Compile(spec, CompileOptions{DefaultServers: 8})
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FieldError, got %v", err)
			}
			if fe.Code != tc.code || fe.Field != tc.field {
				t.Fatalf("got (%s, %s): %s; want (%s, %s)", fe.Code, fe.Field, fe.Message, tc.code, tc.field)
			}
			if fe.Error() == "" {
				t.Fatal("empty error text")
			}
		})
	}
}

// runNDJSON compiles, runs, and encodes a spec at the given width and
// shard size.
func runNDJSON(t *testing.T, spec Spec, width, shardSize int) string {
	t.Helper()
	plan, err := Compile(spec, CompileOptions{DefaultServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := sweep.WithWidth(context.Background(), width)
	rows, err := NewRunner(core.New(8)).Run(ctx, plan, RunOptions{ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, row := range rows {
		if err := enc.Encode(NewRowDTO(plan.Op, row)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestRunDeterministicAcrossWidthsAndShards is the tentpole's contract:
// identical bytes at any worker-pool width and any shard size, for every
// op.
func TestRunDeterministicAcrossWidthsAndShards(t *testing.T) {
	specs := map[string]Spec{
		"evaluate": {
			Workloads: []string{"specjbb", "memcached"},
			Configs:   []ConfigDTO{{Name: "MaxPerf"}, {Name: "NoDG"}, {Name: "LargeEUPS"}},
			Techniques: []TechniqueDTO{
				{Name: "baseline"},
				{Name: "throttling", PState: intp(3)},
				{Name: "sleep", LowPower: boolp(true)},
			},
			Outages: []string{"30s", "5m", "30m"},
		},
		"size": {
			Op:        OpSize,
			Workloads: []string{"specjbb"},
			Techniques: []TechniqueDTO{
				{Name: "throttling", PState: intp(6)},
				{Name: "hibernate"},
			},
			Outages: []string{"30s", "30m"},
		},
		"best": {
			Op:        OpBest,
			Workloads: []string{"memcached"},
			Configs:   []ConfigDTO{{Name: "MaxPerf"}, {Name: "MinCost"}},
			Outages:   []string{"5m"},
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			baseline := runNDJSON(t, spec, 1, 1)
			if baseline == "" {
				t.Fatal("empty output")
			}
			for _, cfg := range []struct{ width, shard int }{
				{1, 0}, {4, 1}, {8, 3}, {8, 0}, {2, 1000},
			} {
				if got := runNDJSON(t, spec, cfg.width, cfg.shard); got != baseline {
					t.Fatalf("width %d shard %d diverged from serial baseline", cfg.width, cfg.shard)
				}
			}
		})
	}
}

func TestRunnerDerivedFrameworks(t *testing.T) {
	spec := Spec{
		Servers:    []int{4, 8, 16},
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s"},
	}
	plan, err := Compile(spec, CompileOptions{DefaultServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(core.New(8))
	rows, err := r.Run(context.Background(), plan, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Err != nil {
			t.Fatalf("row %d: %v", row.Point.Index, row.Err)
		}
		if !row.Result.Survived {
			t.Fatalf("MaxPerf should survive 30s at %d servers", row.Point.Servers)
		}
	}
	if f := r.framework(8); f != r.base {
		t.Fatal("base scale did not reuse the base framework")
	}
	if f4, again := r.framework(4), r.framework(4); f4 != again {
		t.Fatal("derived framework not memoized")
	}
}

func TestRunProgress(t *testing.T) {
	spec := Spec{
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s", "1m", "5m", "10m", "30m"},
	}
	plan, err := Compile(spec, CompileOptions{DefaultServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var got []Progress
	_, err = NewRunner(core.New(8)).Run(context.Background(), plan, RunOptions{
		ShardSize: 2,
		Progress:  func(p Progress) { got = append(got, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Progress{
		{Shard: 1, Shards: 3, RowsDone: 2, Rows: 5},
		{Shard: 2, Shards: 3, RowsDone: 4, Rows: 5},
		{Shard: 3, Shards: 3, RowsDone: 5, Rows: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d progress reports: %+v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("progress %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRunCancellation(t *testing.T) {
	spec := Spec{
		Op:                OpSize,
		Workloads:         []string{"specjbb"},
		TechniqueVariants: true,
		Outages:           []string{"30s", "5m", "30m", "1h", "2h"},
	}
	plan, err := Compile(spec, CompileOptions{DefaultServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	runErr := NewRunner(core.New(8)).RunStream(ctx, plan, RunOptions{ShardSize: 5},
		func(RowResult) error {
			emitted++
			if emitted == 5 {
				cancel() // mid-stream: remaining shards must not run
			}
			return nil
		})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", runErr)
	}
	if emitted >= len(plan.Points) {
		t.Fatalf("cancellation did not stop the stream: %d of %d rows emitted", emitted, len(plan.Points))
	}
}

func TestRowDTOShapes(t *testing.T) {
	sizeSpec := Spec{
		Op:        OpSize,
		Workloads: []string{"specjbb"},
		Techniques: []TechniqueDTO{
			{Name: "throttling", PState: intp(6)},
			{Name: "baseline"},
		},
		Outages: []string{"2h"},
	}
	plan, err := Compile(sizeSpec, CompileOptions{DefaultServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := NewRunner(core.New(8)).Run(context.Background(), plan, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		d := NewRowDTO(OpSize, row)
		if d.Feasible == nil {
			t.Fatalf("size row %d without feasible flag", d.Index)
		}
		if *d.Feasible && (d.Backup == nil || d.Result == nil || d.NormCost == 0) {
			t.Fatalf("feasible size row %d missing payload: %+v", d.Index, d)
		}
		if !*d.Feasible && d.Backup != nil {
			t.Fatalf("infeasible size row %d carries a backup", d.Index)
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, row := range rows {
		if err := enc.Encode(NewRowDTO(OpSize, row)); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rows) {
		t.Fatalf("%d NDJSON lines for %d rows", len(lines), len(rows))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"index":`) {
			t.Fatalf("row line does not lead with index: %s", line)
		}
	}
}

func TestTechniqueCatalog(t *testing.T) {
	docs := TechniqueDocs()
	if len(docs) != len(TechniqueNames()) {
		t.Fatalf("catalog size %d != names %d", len(docs), len(TechniqueNames()))
	}
	for i := 1; i < len(docs); i++ {
		if docs[i-1].Name >= docs[i].Name {
			t.Fatalf("catalog unsorted at %q", docs[i].Name)
		}
	}
	for _, d := range docs {
		if d.Doc == "" {
			t.Fatalf("technique %q without doc", d.Name)
		}
	}
}

func TestResolveTechniqueNameNormalization(t *testing.T) {
	tech, err := ResolveTechnique(TechniqueDTO{Name: "Migration_Then_Sleep", ActiveFraction: floatp(0.5)}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tech == nil || !strings.Contains(tech.Name(), "Migration") {
		t.Fatalf("normalized resolve gave %v", tech)
	}
}
