package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/grid"
	"backuppower/internal/technique"
)

// targetKind classifies what /v1/sweep endpoint the vulture is pointed
// at, which decides how the metrics-delta check reads GET /metrics.
type targetKind int

const (
	// kindUnknown: the target has no readable /metrics document; the
	// metrics-delta check is skipped, the other two still run.
	kindUnknown targetKind = iota
	// kindBackupd: a single worker whose /metrics carries the scenario
	// cache counters.
	kindBackupd
	// kindFabric: a sweepfront coordinator whose /metrics carries
	// rows_merged.
	kindFabric
)

func (k targetKind) String() string {
	switch k {
	case kindBackupd:
		return "backupd"
	case kindFabric:
		return "sweepfront"
	default:
		return "unknown"
	}
}

// checker holds one target's verification state: the base URL, the local
// in-process runner that computes expected bytes, and the metrics mode.
type checker struct {
	base         string
	client       *http.Client
	kind         targetKind
	runner       *grid.Runner
	servers      int
	timeout      time.Duration
	metricsCheck bool
	resultsProbe int // lazily probed: 0 unknown, +1 GET /v1/results served, -1 not served
	logf         func(format string, args ...any)
}

func newChecker(base string, servers int, timeout time.Duration, metricsCheck bool, logf func(string, ...any)) *checker {
	c := &checker{
		base:         base,
		client:       &http.Client{},
		runner:       grid.NewRunner(core.New(servers)),
		servers:      servers,
		timeout:      timeout,
		metricsCheck: metricsCheck,
		logf:         logf,
	}
	c.kind = c.detectKind()
	if c.kind == kindUnknown {
		c.metricsCheck = false
	}
	return c
}

// detectKind probes GET /metrics once: fabric documents carry
// "rows_merged", backupd documents carry "cache" and no "rows_merged". A
// coordinator serves backupd's members too, so rows_merged decides first.
func (c *checker) detectKind() targetKind {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return kindUnknown
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return kindUnknown
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&doc) != nil {
		return kindUnknown
	}
	if _, ok := doc["rows_merged"]; ok {
		return kindFabric
	}
	if _, ok := doc["cache"]; ok {
		return kindBackupd
	}
	return kindUnknown
}

// metricsSnap is the slice of a target's /metrics document the delta
// check needs.
type metricsSnap struct {
	hits, misses int64 // backupd scenario cache counters
	rowsMerged   int64 // fabric merged-row counter

	// Persistent result-store counters, present only when the target runs
	// with -store-dir (the "store" section of the metrics document).
	storePresent               bool
	storeHits, storeRecomputes int64
}

func (c *checker) snapshot(ctx context.Context) (metricsSnap, error) {
	var snap metricsSnap
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var doc struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		RowsMerged int64 `json:"rows_merged"`
		Store      *struct {
			Hits       int64 `json:"hits"`
			Recomputes int64 `json:"recomputes"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return snap, fmt.Errorf("GET /metrics: %w", err)
	}
	snap.hits, snap.misses = doc.Cache.Hits, doc.Cache.Misses
	snap.rowsMerged = doc.RowsMerged
	if doc.Store != nil {
		snap.storePresent = true
		snap.storeHits, snap.storeRecomputes = doc.Store.Hits, doc.Store.Recomputes
	}
	return snap, nil
}

// verifiedSpec is one spec that passed every check, retained for the
// load phase: the request body to replay and the bytes every replay must
// reproduce.
type verifiedSpec struct {
	reqBody  []byte
	expected []byte
	rows     int
}

// checkSpec runs the full verification cycle for one spec: a local
// in-process evaluation fixes the expected bytes, a cold HTTP run must
// match them byte for byte, a warm repeat must match the cold run, the
// decoded response must satisfy the metamorphic invariants, and (when
// the target's metrics are readable and no other traffic shares it) the
// /metrics deltas must be consistent with the warm/cold split.
func (c *checker) checkSpec(ctx context.Context, spec grid.Spec) (verifiedSpec, error) {
	var vs verifiedSpec
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: c.servers})
	if err != nil {
		return vs, fmt.Errorf("generated spec does not compile (generator bug): %w", err)
	}
	vs.rows = len(plan.Points)

	// Expected bytes from the local runner — the same engine, the same
	// DTO encoding, no HTTP. This runs first on purpose: with an
	// in-process loopback target the scenario cache is shared, and
	// warming it here keeps the cold/warm metrics arithmetic below
	// target-independent.
	var local bytes.Buffer
	enc := json.NewEncoder(&local)
	err = c.runner.RunStream(ctx, plan, grid.RunOptions{}, func(row grid.RowResult) error {
		return enc.Encode(grid.NewRowDTO(plan.Op, row))
	})
	if err != nil {
		return vs, fmt.Errorf("local evaluation: %w", err)
	}
	vs.expected = local.Bytes()

	if vs.reqBody, err = json.Marshal(map[string]any{"spec": spec}); err != nil {
		return vs, err
	}

	var m0, m1, m2 metricsSnap
	if c.metricsCheck {
		if m0, err = c.snapshot(ctx); err != nil {
			return vs, err
		}
	}
	cold, err := c.postSweep(ctx, vs.reqBody)
	if err != nil {
		return vs, fmt.Errorf("cold run: %w", err)
	}
	if err := firstDiff(cold, vs.expected, "response", "local evaluation"); err != nil {
		return vs, fmt.Errorf("byte-equality check failed (cold): %w", err)
	}
	if c.metricsCheck {
		if m1, err = c.snapshot(ctx); err != nil {
			return vs, err
		}
	}
	warm, err := c.postSweep(ctx, vs.reqBody)
	if err != nil {
		return vs, fmt.Errorf("warm run: %w", err)
	}
	if err := firstDiff(warm, cold, "warm run", "cold run"); err != nil {
		return vs, fmt.Errorf("byte-equality check failed (warm repeat): %w", err)
	}

	// Decode before the metrics arithmetic: the store-delta check needs to
	// know whether any row erred (error rows are never persisted, so a
	// warm repeat legitimately recomputes them).
	rows, err := decodeRows(cold)
	if err != nil {
		return vs, fmt.Errorf("response stream: %w", err)
	}
	errRows := 0
	for _, row := range rows {
		if row.Error != "" {
			errRows++
		}
	}

	if c.metricsCheck {
		if m2, err = c.snapshot(ctx); err != nil {
			return vs, err
		}
		if err := c.checkMetricsDeltas(m0, m1, m2, len(plan.Points), errRows); err != nil {
			return vs, fmt.Errorf("metrics-delta check failed: %w", err)
		}
	}

	if err := checkInvariants(plan, rows); err != nil {
		return vs, fmt.Errorf("metamorphic check failed: %w", err)
	}
	if err := c.checkReadYourWrites(ctx, m2.storePresent, rows); err != nil {
		return vs, fmt.Errorf("read-your-writes check failed: %w", err)
	}
	return vs, nil
}

// postSweep streams one POST /v1/sweep and returns the full response
// body. Any non-200 status is an error (the body is quoted for the
// report).
func (c *checker) postSweep(ctx context.Context, body []byte) ([]byte, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, truncate(data, 200))
	}
	return data, nil
}

// checkMetricsDeltas verifies the warm/cold split arithmetic.
//
// For a backupd target every row evaluation routes through the scenario
// cache with exactly one counted event per consult (a warm point is one
// hit, a cold point is one miss — the batch kernel keeps the same
// accounting). A warm repeat of a just-run spec therefore re-simulates
// nothing (no new misses), and serves at least as many hits as the cold
// run counted events in total — "at least" because a row-level error
// makes the runner retry the batch unit point by point, adding consults
// on the warm side only.
//
// For a fabric target the coordinator must merge exactly the plan's rows
// on both the cold and the warm run, however its shards were retried or
// hedged.
//
// When the target carries a persistent result store (its /metrics
// document has a "store" section) and the plan produced no row-level
// errors, the warm repeat must be served from the store: zero store
// recomputes, and at least one store hit per plan row. Error rows are
// never persisted, so a plan with any disables the store arithmetic.
func (c *checker) checkMetricsDeltas(m0, m1, m2 metricsSnap, rows, errRows int) error {
	switch c.kind {
	case kindBackupd:
		if d := m2.misses - m1.misses; d != 0 {
			return fmt.Errorf("warm repeat added %d cache misses (re-simulated cached scenarios)", d)
		}
		coldActivity := (m1.hits + m1.misses) - (m0.hits + m0.misses)
		warmHits := m2.hits - m1.hits
		if warmHits < coldActivity {
			return fmt.Errorf("warm repeat served %d cache hits for %d cold-run cache events", warmHits, coldActivity)
		}
	case kindFabric:
		if d := m1.rowsMerged - m0.rowsMerged; d != int64(rows) {
			return fmt.Errorf("cold run merged %d rows for a %d-row plan", d, rows)
		}
		if d := m2.rowsMerged - m1.rowsMerged; d != int64(rows) {
			return fmt.Errorf("warm run merged %d rows for a %d-row plan", d, rows)
		}
	}
	if m2.storePresent && errRows == 0 {
		if d := m2.storeRecomputes - m1.storeRecomputes; d != 0 {
			return fmt.Errorf("warm repeat recomputed %d store entries for a fully stored plan", d)
		}
		if d := m2.storeHits - m1.storeHits; d < int64(rows) {
			return fmt.Errorf("warm repeat served %d store hits for a %d-row plan", d, rows)
		}
	}
	return nil
}

// checkReadYourWrites verifies the stored-results read path against the
// rows the sweep just streamed: after a verified run, GET /v1/results
// coordinate queries for a sample of the response's rows must each
// return the row byte-for-byte (index zeroed — stored rows are
// plan-independent and re-stamped at emission, so the read surface
// reports index 0).
//
// The check runs whenever the target serves GET /v1/results (probed once
// per checker). storeExpected forces the stronger stance: when /metrics
// advertises a store, a missing or failing read surface is an error, not
// a skip.
func (c *checker) checkReadYourWrites(ctx context.Context, storeExpected bool, rows []grid.RowDTO) error {
	if c.resultsProbe == 0 {
		status, _, err := c.getResults(ctx, "servers=-1")
		switch {
		case err == nil && status == http.StatusOK:
			c.resultsProbe = 1
		case err != nil && storeExpected:
			return fmt.Errorf("probing GET /v1/results: %w", err)
		default:
			c.resultsProbe = -1
		}
	}
	if c.resultsProbe < 0 {
		if storeExpected {
			return fmt.Errorf("/metrics reports a result store but GET /v1/results is not served")
		}
		return nil
	}

	// Sample up to four non-error rows spread across the response. Error
	// rows are never persisted, so they have nothing to read back.
	var stored []grid.RowDTO
	for _, row := range rows {
		if row.Error == "" {
			stored = append(stored, row)
		}
	}
	if len(stored) == 0 {
		return nil
	}
	picks := []int{0, len(stored) / 3, 2 * len(stored) / 3, len(stored) - 1}
	last := -1
	for _, i := range picks {
		if i == last {
			continue
		}
		last = i
		row := stored[i]
		query := resultsQuery(row)
		status, body, err := c.getResults(ctx, query)
		if err != nil {
			return fmt.Errorf("query %q: %w", query, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("query %q: status %d: %s", query, status, truncate(body, 200))
		}
		// The stored row is plan-independent; its DTO carries index 0. A
		// coordinate query may legitimately match several stored rows
		// (distinct custom configs can share a name), so at least one
		// returned line must be the byte-exact re-encoding of this row.
		row.Index = 0
		want, err := json.Marshal(row)
		if err != nil {
			return err
		}
		found := false
		for _, line := range bytes.Split(body, []byte("\n")) {
			if bytes.Equal(line, want) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("query %q did not return the just-streamed row\n  want: %s\n  got:  %s",
				query, truncate(want, 200), truncate(body, 200))
		}
	}
	return nil
}

// resultsQuery builds the /v1/results coordinate query matching one
// streamed row: every identifying field the query language can filter
// on, string values Go-quoted.
func resultsQuery(row grid.RowDTO) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "op=%q && servers=%d && workload=%q", row.Op, row.Servers, row.Workload)
	if row.Process != nil {
		// Process rows carry no outage coordinate; the seed + draws pair
		// (with the shared coordinates) pins the row instead.
		fmt.Fprintf(&sb, " && seed=%d && draws=%d", row.Process.Seed, row.Process.Draws)
	} else {
		fmt.Fprintf(&sb, " && outage=%s", row.Outage)
	}
	if row.Config != "" {
		fmt.Fprintf(&sb, " && config=%q", row.Config)
	}
	if row.Family != "" {
		fmt.Fprintf(&sb, " && family=%q", row.Family)
	}
	if row.Technique != "" {
		fmt.Fprintf(&sb, " && technique=%q", row.Technique)
	}
	return sb.String()
}

// getResults issues one GET /v1/results query and returns the status and
// body (the body is returned even on non-200 so callers can quote it).
func (c *checker) getResults(ctx context.Context, query string) (int, []byte, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/results?query="+url.QueryEscape(query), nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

// decodeRows parses an NDJSON response into row DTOs. A line that fails
// to decode as a row (such as the in-band final error line) fails the
// stream.
func decodeRows(data []byte) ([]grid.RowDTO, error) {
	var rows []grid.RowDTO
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var row grid.RowDTO
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("line %d: %w", len(rows)+1, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Invariant tolerances, matching the PR-4 metamorphic suite: perf
// comparisons at 1e-9 absolute, sizing costs at 1e-6 relative (the
// bracketed runtime search quantizes to whole seconds).
const (
	perfTol = 1e-9
	costTol = 1e-6
)

// checkInvariants applies the metamorphic invariants to a decoded
// response, using the compiled plan's typed points to decide
// applicability: perf is a fraction everywhere; for evaluate rows with a
// UPS-only backup and a monotone-trajectory technique, perf cannot rise
// with a longer outage; for size rows, feasibility is antitone and the
// min cost non-decreasing in the outage.
func checkInvariants(plan *grid.Plan, rows []grid.RowDTO) error {
	if len(rows) != len(plan.Points) {
		return fmt.Errorf("%d response rows for a %d-row plan", len(rows), len(plan.Points))
	}
	for i, row := range rows {
		if row.Index != i {
			return fmt.Errorf("row %d carries index %d", i, row.Index)
		}
		if row.Error != "" {
			continue
		}
		if row.Result != nil {
			if p := row.Result.Perf; p < -perfTol || p > 1+perfTol {
				return fmt.Errorf("row %d: perf %v outside [0, 1]", i, p)
			}
		}
		if row.ProcessResult != nil {
			if err := checkProcessRow(i, row.ProcessResult); err != nil {
				return err
			}
		}
	}

	// Group consecutive rows that differ only in their outage — the same
	// adjacency the batch kernel uses — and check each group's
	// outage-ordered trend.
	pts := plan.Points
	for start := 0; start < len(pts); {
		end := start + 1
		for end < len(pts) && sameGroup(&pts[end-1], &pts[end]) {
			end++
		}
		if err := checkGroup(plan.Op, pts[start:end], rows[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// checkGroup checks one differs-only-in-outage run of rows.
func checkGroup(op string, pts []grid.Point, rows []grid.RowDTO) error {
	if len(pts) < 2 {
		return nil
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	// Stable outage order: the axis itself may be unsorted or carry
	// duplicates.
	sort.SliceStable(order, func(a, b int) bool { return pts[order[a]].Outage < pts[order[b]].Outage })

	switch op {
	case grid.OpEvaluate:
		if !upsOnly(pts[0]) || !monotonePerfTechnique(pts[0].Technique) {
			return nil
		}
		last := math.Inf(1)
		for _, i := range order {
			if rows[i].Error != "" || rows[i].Result == nil {
				continue
			}
			p := rows[i].Result.Perf
			if p > last+perfTol {
				return fmt.Errorf("row %d: perf rose with a longer outage (%v -> %v at %v)",
					rows[i].Index, last, p, pts[i].Outage)
			}
			last = p
		}
	case grid.OpSize:
		feasibleSeen := false
		infeasibleAt := time.Duration(-1)
		lastCost := 0.0
		for _, i := range order {
			if rows[i].Error != "" || rows[i].Feasible == nil {
				continue
			}
			if !*rows[i].Feasible {
				infeasibleAt = pts[i].Outage
				continue
			}
			// Feasibility is antitone: once any shorter outage was
			// infeasible, a longer one cannot be feasible.
			if infeasibleAt >= 0 && pts[i].Outage > infeasibleAt {
				return fmt.Errorf("row %d: feasible at %v after infeasible at %v",
					rows[i].Index, pts[i].Outage, infeasibleAt)
			}
			if feasibleSeen && rows[i].NormCost < lastCost*(1-costTol) {
				return fmt.Errorf("row %d: longer outage sized cheaper (%v -> %v at %v)",
					rows[i].Index, lastCost, rows[i].NormCost, pts[i].Outage)
			}
			feasibleSeen = true
			lastCost = rows[i].NormCost
		}
	}
	return nil
}

// checkProcessRow applies the process-row invariants: every rate is a
// fraction, and the per-draw downtime percentiles are ordered
// p50 <= p95 <= p99 <= max. The durations arrive as canonical Go
// strings, which always parse back.
func checkProcessRow(i int, pr *grid.ProcessResultDTO) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"availability", pr.Availability},
		{"survival_rate", pr.SurvivalRate},
		{"perf", pr.Perf},
	} {
		if f.v < -perfTol || f.v > 1+perfTol {
			return fmt.Errorf("row %d: %s %v outside [0, 1]", i, f.name, f.v)
		}
	}
	names := []string{"downtime_p50", "downtime_p95", "downtime_p99", "downtime_max"}
	raw := []string{pr.DowntimeP50, pr.DowntimeP95, pr.DowntimeP99, pr.DowntimeMax}
	last := time.Duration(-1)
	for j, s := range raw {
		d, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("row %d: %s %q does not parse: %v", i, names[j], s, err)
		}
		if d < last {
			return fmt.Errorf("row %d: %s %v below %s %v (percentiles unordered)",
				i, names[j], d, names[j-1], last)
		}
		last = d
	}
	return nil
}

// sameGroup mirrors the batch kernel's adjacency: two points that differ
// only in their outage. Process rows never group — each process is its
// own unit, exactly as in the runner.
func sameGroup(a, b *grid.Point) bool {
	return a.Process == nil && b.Process == nil &&
		a.Servers == b.Servers &&
		a.Workload == b.Workload &&
		a.HasConfig == b.HasConfig &&
		a.Config == b.Config &&
		a.Family == b.Family &&
		sameTechnique(a.Technique, b.Technique)
}

func sameTechnique(a, b technique.Technique) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ta := reflect.TypeOf(a)
	return ta == reflect.TypeOf(b) && ta.Comparable() && a == b
}

// upsOnly reports whether the row's backup has no diesel generator — the
// restriction under which mean perf is provably monotone in the outage
// (a DG that outlasts the transfer ends the pressure, letting a longer
// window RAISE mean perf).
func upsOnly(p grid.Point) bool {
	return p.HasConfig && p.Config.DG.PowerCapacity == 0
}

// monotonePerfTechnique matches the PR-4 monotone-trajectory subset:
// techniques that serve then degrade (or die), with no fixed low-perf
// ramp whose amortization could raise mean perf over a longer window.
func monotonePerfTechnique(t technique.Technique) bool {
	switch t.(type) {
	case technique.Baseline, technique.Throttling, technique.Sleep, technique.Hibernate, technique.NVDIMM:
		return true
	}
	return false
}

// firstDiff reports where two NDJSON streams diverge, by line, so a
// byte-equality failure names the first offending row instead of dumping
// both streams.
func firstDiff(got, want []byte, gotName, wantName string) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Errorf("%s diverges from %s at line %d:\n  got:  %s\n  want: %s",
				gotName, wantName, i+1, truncate(gl[i], 200), truncate(wl[i], 200))
		}
	}
	return fmt.Errorf("%s is %d bytes, %s is %d bytes (common prefix identical)",
		gotName, len(got), wantName, len(want))
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
