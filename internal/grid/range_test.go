package grid

import (
	"bufio"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"backuppower/internal/cost"
)

// assertRangeMatchesSlice checks CompileRange against the full path for
// one spec: for every shard range at sizes 1, 7 and 64 the points must be
// deeply equal to Compile(...).Slice(r), and for every out-of-plan range
// (or a spec that does not compile at all) the *FieldError must match
// code, field and message.
func assertRangeMatchesSlice(t *testing.T, name string, spec Spec, opt CompileOptions) {
	t.Helper()
	full, fullErr := Compile(spec, opt)
	if fullErr != nil {
		for _, r := range []RowRange{{0, 1}, {0, 64}, {-1, 1}, {5, 3}} {
			_, _, err := CompileRange(spec, opt, r)
			sameFieldError(t, name, r, err, fullErr)
		}
		return
	}
	n := len(full.Points)
	for _, size := range []int{1, 7, 64} {
		for _, r := range full.Shards(size) {
			got, rows, err := CompileRange(spec, opt, r)
			if err != nil {
				t.Fatalf("%s: range %+v: %v", name, r, err)
			}
			want, err := full.Slice(r)
			if err != nil {
				t.Fatalf("%s: slice %+v: %v", name, r, err)
			}
			if rows != n {
				t.Fatalf("%s: range %+v reports %d plan rows, want %d", name, r, rows, n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: range %+v points differ from Compile(...).Slice", name, r)
			}
		}
	}
	for _, r := range []RowRange{{-1, 1}, {0, n + 1}, {n, n + 1}, {n + 5, n + 9}, {0, 0}, {2, 2}, {3, 1}} {
		_, _, err := CompileRange(spec, opt, r)
		_, want := full.Slice(r)
		sameFieldError(t, name, r, err, want)
	}
}

func sameFieldError(t *testing.T, name string, r RowRange, got, want error) {
	t.Helper()
	var g, w *FieldError
	if !errors.As(want, &w) {
		t.Fatalf("%s: range %+v: full path error is not a *FieldError: %v", name, r, want)
	}
	if !errors.As(got, &g) {
		t.Fatalf("%s: range %+v: got %v, want *FieldError %v", name, r, got, want)
	}
	if *g != *w {
		t.Fatalf("%s: range %+v: got %+v, want %+v", name, r, *g, *w)
	}
}

// TestCompileRangeMatchesSlice pins range compile to the full path over
// seeded RandomSpec draws (every op, crossed and zipped axes, filters,
// technique_variants and process axes) plus hand-written specs that
// stack the features the generator draws one at a time.
func TestCompileRangeMatchesSlice(t *testing.T) {
	opt := CompileOptions{DefaultServers: 8}
	b := DefaultBounds()
	for seed := int64(0); seed < 200; seed++ {
		spec := RandomSpec(rand.New(rand.NewSource(seed)), b)
		assertRangeMatchesSlice(t, "seed "+strconv.FormatInt(seed, 10), spec, opt)
	}

	filtered := fig59Spec()
	filtered.Servers = []int{4, 16}
	filtered.Filter = &Filter{SampleEvery: 3, MinOutage: "5m"}
	variants := Spec{
		Op:                OpSize,
		Workloads:         []string{"specjbb", "memcached"},
		TechniqueVariants: true,
		Outages:           []string{"30s", "10m", "1h"},
		Filter:            &Filter{SampleEvery: 2, MaxOutage: "30m"},
	}
	zipped := Spec{
		Zip:        true,
		Servers:    []int{4, 8, 16},
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}, {Name: "NoDG"}, {Name: "MinCost"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s", "5m", "1h"},
		Filter:     &Filter{SampleEvery: 2},
	}
	process := Spec{
		Workloads:  []string{"specjbb", "memcached"},
		Configs:    []ConfigDTO{{Name: "NoDG"}, {Name: "MaxPerf"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}, {Name: "sleep", LowPower: boolp(true)}},
		OutageProcesses: []ProcessDTO{
			{Seed: 42, Draws: 2, Arrival: DistDTO{Kind: "exponential", Mean: "2000h"}, Duration: DistDTO{Kind: "fixed", Mean: "10m"}},
			{Seed: 7, Draws: 1, Arrival: DistDTO{Kind: "empirical"}, Duration: DistDTO{Kind: "empirical"}},
		},
		Filter: &Filter{SampleEvery: 3},
	}
	for name, spec := range map[string]Spec{
		"filtered": filtered, "variants": variants, "zipped": zipped, "process": process,
	} {
		assertRangeMatchesSlice(t, name, spec, opt)
	}
}

// corpusValues reads the literal of every value line of one committed
// `go test fuzz v1` corpus file (the text inside `type(...)`).
func corpusValues(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var vals []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		open := strings.IndexByte(line, '(')
		if open < 0 || !strings.HasSuffix(line, ")") {
			continue // the header line
		}
		vals = append(vals, line[open+1:len(line)-1])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vals
}

func corpusFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus under %s (%v)", dir, err)
	}
	return files
}

// TestCompileRangeMatchesOnFuzzCorpora runs the equivalence over every
// committed hostile spec: the sweep-request decode corpus (bodies that
// decode to a spec) and the RandomSpec corpus (decoded exactly as the
// fuzz target builds its spec), each under the default and a tight row
// bound.
func TestCompileRangeMatchesOnFuzzCorpora(t *testing.T) {
	for _, path := range corpusFiles(t, filepath.Join("..", "httpapi", "testdata", "fuzz", "FuzzDecodeSweepRequest")) {
		vals := corpusValues(t, path)
		if len(vals) != 1 {
			t.Fatalf("%s: want one string value, got %d", path, len(vals))
		}
		body, err := strconv.Unquote(vals[0])
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var req struct {
			Spec Spec `json:"spec"`
		}
		if json.Unmarshal([]byte(body), &req) != nil {
			continue // rejected by the decoder before any compile
		}
		for _, maxRows := range []int{0, 2} {
			assertRangeMatchesSlice(t, filepath.Base(path), req.Spec, CompileOptions{DefaultServers: 4, MaxRows: maxRows})
		}
	}

	for _, path := range corpusFiles(t, filepath.Join("testdata", "fuzz", "FuzzRandomSpecCompiles")) {
		vals := corpusValues(t, path)
		if len(vals) != 6 {
			t.Fatalf("%s: want six values, got %d", path, len(vals))
		}
		var n [6]int64
		for i, v := range vals {
			var err error
			if n[i], err = strconv.ParseInt(v, 10, 64); err != nil {
				t.Fatalf("%s: value %d: %v", path, i, err)
			}
		}
		seed, axisLen, servers, maxRows := n[0], int(n[1]), int(n[2]), int(n[5])
		b := Bounds{
			MaxAxisLen:       axisLen,
			MaxOutageAxisLen: axisLen,
			MinOutage:        time.Duration(n[3]),
			MaxOutage:        time.Duration(n[4]),
			Variants:         seed%2 == 0,
		}
		if servers != 0 {
			b.Servers = []int{servers}
		}
		spec := RandomSpec(rand.New(rand.NewSource(seed)), b)
		if maxRows < 0 {
			maxRows = -maxRows
		}
		assertRangeMatchesSlice(t, filepath.Base(path), spec, CompileOptions{DefaultServers: 8, MaxRows: maxRows})
	}
}

// studySpec is the benchmark's study shape: one workload × the nine
// Table-3 configurations × the 30 Section-6 technique variants × 16
// outages = 4320 rows.
func studySpec() Spec {
	var configs []ConfigDTO
	for _, b := range cost.Table3(1) {
		configs = append(configs, ConfigDTO{Name: b.Name})
	}
	var outages []string
	for i := 1; i <= 16; i++ {
		outages = append(outages, (time.Duration(i) * 7 * time.Minute).String())
	}
	return Spec{
		Workloads:         []string{"specjbb"},
		Configs:           configs,
		TechniqueVariants: true,
		Outages:           outages,
	}
}

// TestCompileRangeAllocBound pins the point of range compile: a 64-row
// shard of the 4320-row study costs its own rows, not the plan's. The
// bound is on TotalAlloc, the bytes allocated (freed or not), so it is
// exact about the work done rather than about the heap's state.
func TestCompileRangeAllocBound(t *testing.T) {
	spec := studySpec()
	opt := CompileOptions{DefaultServers: 64}
	if plan := mustCompile(t, spec); len(plan.Points) != 4320 {
		t.Fatalf("study spec has %d rows, want 4320", len(plan.Points))
	}
	r := RowRange{Start: 2048, End: 2112}
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, rows, err := CompileRange(spec, opt, r)
		runtime.ReadMemStats(&after)
		if err != nil || rows != 4320 || len(plan.Points) != r.Rows() {
			t.Fatalf("CompileRange: %d points of %d rows, err %v", len(plan.Points), rows, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	best := measure()
	for i := 0; i < 4; i++ {
		best = min(best, measure())
	}
	const bound = 128 << 10
	if best > bound {
		t.Fatalf("CompileRange of a 64-row range allocated %d B, past the %d B bound", best, bound)
	}
	t.Logf("CompileRange of a 64-row range allocates %d B", best)
}

// TestCompileAllocBound pins the head of every coordinator request and
// every backupd study: compile sizes Points to the surviving rows before
// it enumerates, so the 4320-row study costs its points once rather than
// the 1.25× growth steps append would take. Filtered and zipped plans
// get exact capacity too.
func TestCompileAllocBound(t *testing.T) {
	spec := studySpec()
	opt := CompileOptions{DefaultServers: 64}
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := Compile(spec, opt)
		runtime.ReadMemStats(&after)
		if err != nil || len(plan.Points) != 4320 {
			t.Fatalf("Compile: %d points, err %v", len(plan.Points), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	best := measure()
	for i := 0; i < 4; i++ {
		best = min(best, measure())
	}
	const bound = 2 << 20
	if best > bound {
		t.Fatalf("Compile of the 4320-row study allocated %d B, past the %d B bound", best, bound)
	}
	t.Logf("Compile of the 4320-row study allocates %d B", best)

	sampled := studySpec()
	sampled.Filter = &Filter{SampleEvery: 7}
	band := studySpec()
	band.Filter = &Filter{MinOutage: "20m", MaxOutage: "1h30m"}
	zip := Spec{
		Workloads:  []string{"specjbb"},
		Configs:    []ConfigDTO{{Name: "MaxPerf"}, {Name: "NoDG"}, {Name: "MinCost"}},
		Techniques: []TechniqueDTO{{Name: "baseline"}},
		Outages:    []string{"30s", "5m", "30m"},
		Zip:        true,
		Filter:     &Filter{MaxOutage: "10m"},
	}
	for name, s := range map[string]Spec{"study": studySpec(), "sample_every": sampled, "outage band": band, "zip": zip} {
		plan, err := Compile(s, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(plan.Points) == 0 || cap(plan.Points) != len(plan.Points) {
			t.Fatalf("%s: %d points in capacity %d, want exact", name, len(plan.Points), cap(plan.Points))
		}
	}
}
