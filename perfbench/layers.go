package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/core"
	"backuppower/internal/fabric"
	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
	"backuppower/internal/resultstore"
	"backuppower/internal/sweep"
)

// Sizes of the traced replay. It replays a fixed number of each
// workload's seeded requests in this process, calling each layer's public
// functions directly, so it takes the same time whatever --seconds says.
const (
	tracePointN = 1600
	traceStudyN = 8
	// traceFabricN is how many of the same studies the fabric phase
	// sends; they are the first traceFabricN of the study phase's.
	traceFabricN    = 4
	traceRerunEpoch = rerunPerEpoch
	// traceRounds is how many times the study and rerun phases serve
	// each request; coverage takes each request's fastest round.
	traceRounds = 5
	// generatorConns bounds the generator's connections to nproc.
	generatorConns = 2
	// pointRate is the rate of the point requests' open loop over
	// loopback: an eighth of what the seed code's handler sustains over
	// two connections (about 8000/s).
	pointRate = 1000.0
	// entryPrefix names the spans around a program entry point: the
	// handler backupd or sweepfront serves a request with.
	entryPrefix = "entry."
)

// Replay is one pass of the traced replay: one Tracer per phase, the
// counters read at layer boundaries, and the replay's own correctness
// tally.
type Replay struct {
	on     bool
	work   string
	seed   int64
	phases map[string]*Tracer
	order  []string
	walls  map[string]time.Duration
	counts map[string]float64

	attempted, failed int
}

func newReplay(on bool, work string, seed int64) *Replay {
	return &Replay{on: on, work: work, seed: seed, phases: map[string]*Tracer{},
		walls: map[string]time.Duration{}, counts: map[string]float64{}}
}

// phase runs fn under a new tracer.
func (r *Replay) phase(name string, fn func(tr *Tracer) error) error {
	tr := NewTracer(r.on)
	r.phases[name] = tr
	r.order = append(r.order, name)
	start := time.Now()
	err := fn(tr)
	r.walls[name] += time.Since(start)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// tally records one replayed request and whether it was right.
func (r *Replay) tally(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// mallocs is the process's cumulative heap-allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// processCPU is the user+system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfRSS is this process's resident set size after returning freed
// memory to the system.
func selfRSS() int64 {
	debug.FreeOSMemory()
	rss, err := statusKB("/proc/self/status", "VmRSS:")
	if err != nil {
		return 0
	}
	return rss
}

// Run replays every workload. Phases that must start cold reset the
// process-global scenario cache, so the traced and untraced passes see
// identical cache states.
func (r *Replay) Run(ctx context.Context) error {
	if err := r.point(ctx); err != nil {
		return err
	}
	digests, err := r.study(ctx)
	if err != nil {
		return err
	}
	if err := r.fabric(ctx, digests); err != nil {
		return err
	}
	return r.rerun(ctx)
}

// newHTTPRequest builds req as an in-process request to the handler.
func newHTTPRequest(req Request) *http.Request {
	hr := httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body))
	hr.Header.Set("Content-Type", "application/json")
	return hr
}

// point replays the point workload: the handler path (its blocking path),
// then probes of decode, transport, the core calls, the process
// evaluation and the outage draws.
func (r *Replay) point(ctx context.Context) error {
	warm, timed := pointInputs(r.seed, tracePointN)
	ref := NewReference()
	want := make([]Digest, len(timed))
	for i, req := range timed {
		d, err := ref.Digest(req)
		if err != nil {
			return err
		}
		want[i] = d
	}

	core.ResetScenarioCache()
	api, err := httpapi.New(httpapi.Config{Framework: core.New(servers)})
	if err != nil {
		return err
	}
	h := api.Handler()
	for _, req := range warm {
		h.ServeHTTP(httptest.NewRecorder(), newHTTPRequest(req))
	}

	// The handler path. Requests and recorders are built before the loop,
	// so the allocation count is the handler's own.
	hreqs := make([]*http.Request, len(timed))
	recs := make([]*httptest.ResponseRecorder, len(timed))
	for i, req := range timed {
		hreqs[i], recs[i] = newHTTPRequest(req), httptest.NewRecorder()
	}
	hits0, misses0 := core.ScenarioCacheStats()
	m0 := mallocs()
	err = r.phase("point", func(tr *Tracer) error {
		for i, req := range timed {
			tr.SetReq(i)
			tr.Begin("httpapi.handler." + req.Kind)
			h.ServeHTTP(recs[i], hreqs[i])
			tr.End()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.counts["httpapi.mallocs"] = float64(mallocs() - m0)
	hits1, misses1 := core.ScenarioCacheStats()
	r.counts["point.cache_hits"] = float64(hits1 - hits0)
	r.counts["point.cache_lookups"] = float64(hits1 - hits0 + misses1 - misses0)
	r.counts["point.requests"] = float64(len(timed))
	for i, rec := range recs {
		r.tally(rec.Code == http.StatusOK && digestOf(rec.Body.Bytes()) == want[i])
	}

	err = r.phase("point.decode", func(tr *Tracer) error {
		for i, req := range timed {
			tr.SetReq(i)
			var err error
			switch req.Kind {
			case "evaluate":
				tr.Begin("httpapi.decode")
				_, err = httpapi.DecodeEvaluateRequest(bytes.NewReader(req.Body))
				tr.End()
			case "sweep":
				tr.Begin("httpapi.decode")
				_, err = httpapi.DecodeSweepRequest(bytes.NewReader(req.Body))
				tr.End()
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if err := r.transport(ctx, h, timed, want); err != nil {
		return err
	}

	// Resolve every scalar request to model values outside the timed
	// phase, through the same one-row plans the reference uses.
	points := make([]grid.Point, len(timed))
	for i, req := range timed {
		spec, err := specOf(req)
		if err != nil {
			return err
		}
		plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: servers})
		if err != nil {
			return err
		}
		points[i] = plan.Points[0]
	}
	fw := core.New(servers)
	err = r.phase("point.core", func(tr *Tracer) error {
		for i, req := range timed {
			p := points[i]
			tr.SetReq(i)
			var err error
			switch req.Kind {
			case "evaluate":
				tr.Begin("core.eval.evaluate")
				_, err = fw.EvaluateCtx(ctx, p.Config, p.Technique, p.Workload, p.Outage)
				tr.End()
			case "size":
				tr.Begin("core.eval.size")
				_, _, err = fw.MinCostUPSCtx(ctx, p.Technique, p.Workload, p.Outage)
				tr.End()
			case "best":
				tr.Begin("core.eval.best")
				_, _, err = fw.BestForConfigCtx(ctx, p.Config, p.Workload, p.Outage)
				tr.End()
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Process rows arrive with fresh seeds, so they evaluate cold.
	core.ResetScenarioCache()
	err = r.phase("point.process", func(tr *Tracer) error {
		for i, req := range timed {
			if req.Kind != "sweep" {
				continue
			}
			p := points[i]
			tr.SetReq(i)
			tr.Begin("core.process")
			_, err := fw.EvaluateProcessCtx(ctx, p.Config, p.Technique, p.Workload, *p.Process)
			tr.End()
			if err != nil {
				return err
			}
			r.counts["core.process_draws"] += float64(p.Process.Draws)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return r.phase("point.outage", func(tr *Tracer) error {
		for i, req := range timed {
			if req.Kind != "sweep" {
				continue
			}
			p := points[i]
			tr.SetReq(i)
			for d := 0; d < p.Process.Draws; d++ {
				tr.Begin("outage.draw")
				ev := p.Process.Draw(d)
				tr.End()
				r.counts["outage.draws"]++
				r.counts["outage.events"] += float64(len(ev))
			}
		}
		return nil
	})
}

// transport replays the point requests over loopback HTTP to an
// in-process server, as an open loop at the point rate over two
// connections, and records the server-side handler time beside each
// round trip and how late the generator sent.
func (r *Replay) transport(ctx context.Context, h http.Handler, timed []Request, want []Digest) error {
	var handlerNS atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		handlerNS.Add(int64(time.Since(start)))
	}))
	defer srv.Close()
	client := newClient(generatorConns)
	defer client.CloseIdleConnections()
	var out []Outcome
	err := r.phase("point.transport", func(tr *Tracer) error {
		tr.Begin("httpapi.roundtrip")
		out = OpenLoop(ctx, client, srv.URL, timed, pointRate, generatorConns)
		tr.End()
		return nil
	})
	if err != nil {
		return err
	}
	var rtNS, lateNS int64
	for i, o := range out {
		r.tally(o.OK() && o.Digest == want[i])
		rtNS += int64(o.Done.Sub(o.Sent))
		lateNS += int64(o.Sent.Sub(o.Due))
	}
	n := float64(len(out))
	r.counts["httpapi.transport_us"] = float64(rtNS-handlerNS.Load()) / n / 1e3
	r.counts["bench.gen_late_ms"] = float64(lateNS) / n / 1e6
	return nil
}

// batchUnits splits plan rows into the runner's outage-batch units: runs
// of consecutive rows that differ only in their outage, cut at the
// runner's default shard boundaries.
func batchUnits(points []grid.Point) [][]grid.Point {
	var units [][]grid.Point
	for shard := 0; shard < len(points); shard += grid.DefaultShardSize {
		end := min(shard+grid.DefaultShardSize, len(points))
		for start := shard; start < end; {
			stop := start + 1
			for stop < end && sameUnit(&points[stop-1], &points[stop]) {
				stop++
			}
			units = append(units, points[start:stop])
			start = stop
		}
	}
	return units
}

// sameUnit is the runner's batching rule: two adjacent rows batch when
// they differ only in their outage.
func sameUnit(a, b *grid.Point) bool {
	if a.Process != nil || b.Process != nil || a.Servers != b.Servers || a.Workload != b.Workload ||
		a.HasConfig != b.HasConfig || a.Config != b.Config || a.Family != b.Family {
		return false
	}
	if a.Technique == nil || b.Technique == nil {
		return a.Technique == nil && b.Technique == nil
	}
	t := reflect.TypeOf(a.Technique)
	return t == reflect.TypeOf(b.Technique) && t.Comparable() && a.Technique == b.Technique
}

// outagesOf lists a unit's outages.
func outagesOf(unit []grid.Point) []time.Duration {
	o := make([]time.Duration, len(unit))
	for i := range unit {
		o[i] = unit[i].Outage
	}
	return o
}

// runEncoded streams plan through runner, encoding every row the way the
// sweep handler does (a new JSON encoder per row), inside grid.run and
// grid.encode spans.
func runEncoded(ctx context.Context, tr *Tracer, runner *grid.Runner, plan *grid.Plan, buf *bytes.Buffer) error {
	tr.Begin("grid.run")
	err := runner.RunStream(ctx, plan, grid.RunOptions{}, func(row grid.RowResult) error {
		tr.Begin("grid.encode")
		err := json.NewEncoder(buf).Encode(grid.NewRowDTO(plan.Op, row))
		tr.End()
		return err
	})
	tr.End()
	return err
}

// decodeCompile decodes a sweep body and compiles its spec, inside
// httpapi.decode and grid.compile spans.
func decodeCompile(tr *Tracer, req Request) (*grid.Plan, error) {
	tr.Begin("httpapi.decode")
	sr, err := httpapi.DecodeSweepRequest(bytes.NewReader(req.Body))
	tr.End()
	if err != nil {
		return nil, err
	}
	tr.Begin("grid.compile")
	plan, err := grid.Compile(sr.Spec, grid.CompileOptions{DefaultServers: servers})
	tr.End()
	return plan, err
}

// newAPI returns backupd's handler at sweep width 1, as the traced
// replay serves requests through it.
func newAPI(workerID string) (http.Handler, error) {
	api, err := httpapi.New(httpapi.Config{Framework: core.New(servers), Width: 1, WorkerID: workerID})
	if err != nil {
		return nil, err
	}
	return api.Handler(), nil
}

// coldStart empties the scenario cache, so that a served request and
// its layer replay both start cold.
func coldStart() {
	core.ResetScenarioCache()
}

// inTurn runs a request's entry pass and its layer replay, each from a
// cold start. The order alternates with turn, so neither pass always
// runs on a warmer machine.
func inTurn(turn int, entry, layers func() error) error {
	first, second := entry, layers
	if turn%2 == 1 {
		first, second = layers, entry
	}
	coldStart()
	if err := first(); err != nil {
		return err
	}
	coldStart()
	return second()
}

// serveEntry serves req through the program entry h inside a root span
// named entryPrefix+name and returns the response body.
func serveEntry(tr *Tracer, h http.Handler, name string, req Request) (int, []byte) {
	hreq, rec := newHTTPRequest(req), httptest.NewRecorder()
	tr.Begin(entryPrefix + name)
	h.ServeHTTP(rec, hreq)
	tr.End()
	return rec.Code, rec.Body.Bytes()
}

// study replays the study workload at sweep width 1. Each request is
// served cold twice: through backupd's handler, the program's entry
// (an entry span), then through the layer calls the handler makes,
// decode, compile, run and encode, each in its own span. Then it probes
// the batch kernel and the segment walk on the same plans. It returns
// the digests of the encoded streams.
func (r *Replay) study(ctx context.Context) ([]Digest, error) {
	_, timed, err := studyInputs(r.seed, 0, traceStudyN)
	if err != nil {
		return nil, err
	}
	ctx = sweep.WithWidth(ctx, 1)
	h, err := newAPI("")
	if err != nil {
		return nil, err
	}
	fw := core.New(servers)
	runner := grid.NewRunner(fw)
	digests := make([]Digest, len(timed))
	plans := make([]*grid.Plan, len(timed))

	core.ResetScenarioCache()
	hits0, misses0 := core.ScenarioCacheStats()
	var allocs uint64
	err = r.phase("study", func(tr *Tracer) error {
		for round := 0; round < traceRounds; round++ {
			tr.SetRound(round)
			if err := r.studyRound(ctx, tr, h, runner, timed, round, plans, digests, &allocs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.counts["grid.mallocs"] = float64(allocs)
	hits1, misses1 := core.ScenarioCacheStats()
	r.counts["study.cache_hits"] = float64(hits1 - hits0)
	r.counts["study.cache_lookups"] = float64(hits1 - hits0 + misses1 - misses0)

	core.ResetScenarioCache()
	err = r.phase("study.core", func(tr *Tracer) error {
		for i, plan := range plans {
			tr.SetReq(i)
			for _, u := range batchUnits(plan.Points) {
				outages := outagesOf(u)
				tr.Begin("core.batch")
				_, err := fw.EvaluateBatchCtx(ctx, u[0].Config, u[0].Technique, u[0].Workload, outages)
				tr.End()
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = r.phase("study.cluster", func(tr *Tracer) error {
		for i, plan := range plans {
			tr.SetReq(i)
			for _, u := range batchUnits(plan.Points) {
				scn := cluster.Scenario{Env: fw.Env, Workload: u[0].Workload, Backup: u[0].Config, Technique: u[0].Technique}
				outages := outagesOf(u)
				tr.Begin("cluster.walk")
				_, err := cluster.SimulateOutageBatch(scn, outages)
				tr.End()
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	return digests, err
}

// studyRound serves every study request once through the entry and once
// through the layer calls, keeping the plans and stream digests.
func (r *Replay) studyRound(ctx context.Context, tr *Tracer, h http.Handler, runner *grid.Runner,
	timed []Request, round int, plans []*grid.Plan, digests []Digest, allocs *uint64) error {
	var buf bytes.Buffer
	for i, req := range timed {
		tr.SetReq(i)
		var code int
		var body []byte
		err := inTurn(i+round, func() error {
			code, body = serveEntry(tr, h, "backupd", req)
			return nil
		}, func() error {
			plan, err := decodeCompile(tr, req)
			if err != nil {
				return err
			}
			plans[i] = plan
			buf.Reset()
			m0 := mallocs()
			err = runEncoded(ctx, tr, runner, plan, &buf)
			*allocs += mallocs() - m0
			return err
		})
		if err != nil {
			return err
		}
		plan := plans[i]
		digests[i] = digestOf(buf.Bytes())
		r.tally(code == http.StatusOK && bytes.Equal(body, buf.Bytes()))
		r.counts["grid.bytes"] += float64(buf.Len())
		r.counts["grid.rows"] += float64(len(plan.Points))
		r.counts["grid.units"] += float64(len(batchUnits(plan.Points)))
	}
	return nil
}

// fabricDoc is the part of the coordinator's metrics document the
// per-layer table reads.
type fabricDoc struct {
	ShardLatency struct {
		Completed int   `json:"completed"`
		P50NS     int64 `json:"p50_ns"`
	} `json:"shard_latency"`
	Shards struct {
		Dispatched int `json:"dispatched"`
		Hedged     int `json:"hedged"`
		Retried    int `json:"retried"`
	} `json:"shards"`
	Workers struct {
		Rows map[string]int `json:"rows"`
	} `json:"workers"`
}

// fabric replays the study requests through sweepfront's handler, the
// program's entry (an entry span), in front of two in-process loopback
// workers of width 1. Each worker request is a fabric.worker span under
// the entry span; those spans overlap. Beside each, untraced, a
// single-node run of the same spec at width 2 (the same two cores). Both
// start cold; the difference in this process's CPU time is the
// coordination tax.
func (r *Replay) fabric(ctx context.Context, studyDigests []Digest) error {
	_, timed, err := studyInputs(r.seed, 0, traceFabricN)
	if err != nil {
		return err
	}
	var cur atomic.Pointer[Tracer]
	var urls []string
	for i := 0; i < 2; i++ {
		h, err := newAPI(fmt.Sprintf("w%d", i))
		if err != nil {
			return err
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if tr := cur.Load(); tr != nil {
				defer tr.Aside("fabric.worker")()
			}
			h.ServeHTTP(w, req)
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	f, err := fabric.New(fabric.Options{Workers: urls, DefaultServers: servers})
	if err != nil {
		return err
	}
	front := f.Handler()
	runner := grid.NewRunner(core.New(servers))
	untraced := NewTracer(false)
	var single bytes.Buffer
	err = r.phase("fabric", func(tr *Tracer) error {
		cur.Store(tr)
		for i, req := range timed {
			tr.SetReq(i)
			plan, err := decodeCompile(untraced, req)
			if err != nil {
				return err
			}
			coldStart()
			single.Reset()
			c0 := processCPU()
			if err := runEncoded(sweep.WithWidth(ctx, 2), untraced, runner, plan, &single); err != nil {
				return err
			}
			c1 := processCPU()

			coldStart()
			c2 := processCPU()
			code, body := serveEntry(tr, front, "sweepfront", req)
			c3 := processCPU()
			r.counts["fabric.tax_ns"] += float64((c3 - c2) - (c1 - c0))
			r.counts["fabric.rows"] += float64(len(plan.Points))
			r.tally(code == http.StatusOK && bytes.Equal(single.Bytes(), body) && digestOf(body) == studyDigests[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	var doc fabricDoc
	var mb bytes.Buffer
	f.Metrics().Write(&mb)
	if err := json.Unmarshal(mb.Bytes(), &doc); err != nil {
		return fmt.Errorf("fabric metrics document: %w", err)
	}
	r.counts["fabric.requests"] = float64(len(timed))
	r.counts["fabric.dispatched"] = float64(doc.Shards.Dispatched)
	r.counts["fabric.hedged"] = float64(doc.Shards.Hedged)
	r.counts["fabric.retried"] = float64(doc.Shards.Retried)
	r.counts["fabric.shard_p50_ms"] = float64(doc.ShardLatency.P50NS) / 1e6
	lo, hi := -1, 0
	for _, n := range doc.Workers.Rows {
		if lo < 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	if lo > 0 {
		r.counts["fabric.worker_row_skew"] = float64(hi) / float64(lo)
	}
	return nil
}

// tracedStore is the result store with spans around the calls the
// evaluation pathway makes into it.
type tracedStore struct {
	*resultstore.Disk
	tr *Tracer
}

func (s tracedStore) Get(k resultstore.Key) ([]byte, bool) {
	s.tr.Begin("resultstore.get")
	defer s.tr.End()
	return s.Disk.Get(k)
}

func (s tracedStore) Put(k resultstore.Key, payload []byte) {
	s.tr.Begin("resultstore.put")
	defer s.tr.End()
	s.Disk.Put(k, payload)
}

func (s tracedStore) Seal() error {
	s.tr.Begin("resultstore.seal")
	defer s.tr.End()
	return s.Disk.Seal()
}

// rerun replays the rerun epoch in-process, traceRounds times. Each
// round opens two fresh stores, attached the way backupd -store-dir
// attaches them, and serves each study twice at width 1: through
// backupd's handler, the program's entry (an entry span), on store A,
// then through the layer calls the handler makes on store B, whose
// wrapper records Get, Put and Seal spans. Both stores see the same
// studies in the same order, so both passes do the same work. The store
// counters are summed over the rounds; this process's RSS growth is read
// around the first.
func (r *Replay) rerun(ctx context.Context) error {
	_, epoch, err := rerunInputs(r.seed, traceRerunEpoch)
	if err != nil {
		return err
	}
	ref := NewReference()
	want := make([]Digest, len(epoch))
	for i, req := range epoch {
		d, err := ref.Digest(req)
		if err != nil {
			return err
		}
		want[i] = d
	}
	ctx = sweep.WithWidth(ctx, 1)
	h, err := newAPI("")
	if err != nil {
		return err
	}
	runner := grid.NewRunner(core.New(servers))
	var stats resultstore.Stats
	err = r.phase("rerun", func(tr *Tracer) error {
		for round := 0; round < traceRounds; round++ {
			tr.SetRound(round)
			st, err := r.rerunRound(ctx, tr, h, runner, epoch, want, round)
			if err != nil {
				return err
			}
			stats.HitsRows += st.HitsRows
			stats.RecomputesRows += st.RecomputesRows
			stats.HitsScenarios += st.HitsScenarios
			stats.Puts += st.Puts
			stats.Compactions += st.Compactions
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(epoch) * traceRounds)
	r.counts["resultstore.row_hit_ratio"] = float64(stats.HitsRows) / float64(stats.HitsRows+stats.RecomputesRows)
	r.counts["resultstore.scenario_hits_per_req"] = float64(stats.HitsScenarios) / n
	r.counts["resultstore.puts_per_req"] = float64(stats.Puts) / n
	r.counts["resultstore.compactions_per_epoch"] = float64(stats.Compactions) / traceRounds
	return nil
}

// rerunRound serves one epoch against two fresh stores and returns the
// traced store's counters. The first round also records the store's
// RSS cost per key.
func (r *Replay) rerunRound(ctx context.Context, tr *Tracer, h http.Handler, runner *grid.Runner,
	epoch []Request, want []Digest, round int) (resultstore.Stats, error) {
	var dirs [2]string
	for k := range dirs {
		dirs[k] = filepath.Join(r.work, fmt.Sprintf("rerun-trace-%d-%d", os.Getpid(), k))
		if err := os.RemoveAll(dirs[k]); err != nil {
			return resultstore.Stats{}, err
		}
		defer os.RemoveAll(dirs[k])
	}
	coldStart()
	rss0 := selfRSS()
	var disks [2]*resultstore.Disk
	for k := range disks {
		var err error
		if disks[k], err = resultstore.Open(dirs[k]); err != nil {
			for _, d := range disks[:k] {
				d.Close()
			}
			return resultstore.Stats{}, err
		}
	}
	attach := func(s resultstore.Store) {
		core.SetResultStore(s)
		grid.SetRowStore(s)
	}
	defer attach(nil)
	traced := tracedStore{Disk: disks[1], tr: tr}
	var buf bytes.Buffer
	err := func() error {
		for i, req := range epoch {
			tr.SetReq(i)
			var code int
			var body []byte
			err := inTurn(i+round, func() error {
				attach(disks[0])
				code, body = serveEntry(tr, h, "backupd", req)
				return nil
			}, func() error {
				attach(traced)
				plan, err := decodeCompile(tr, req)
				if err != nil {
					return err
				}
				buf.Reset()
				return runEncoded(ctx, tr, runner, plan, &buf)
			})
			if err != nil {
				return err
			}
			r.tally(code == http.StatusOK && digestOf(body) == want[i])
			r.tally(digestOf(buf.Bytes()) == want[i])
		}
		return nil
	}()
	rss1 := selfRSS()
	for _, d := range disks {
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	stats := disks[1].Stats()
	if keys := disks[0].Stats().Keys + stats.Keys; round == 0 && keys > 0 {
		r.counts["resultstore.bytes_per_key"] = float64(rss1-rss0) / float64(keys)
	}
	return stats, err
}
