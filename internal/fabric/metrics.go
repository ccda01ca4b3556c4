package fabric

import (
	"expvar"
	"io"
	"sort"
	"sync"
	"time"

	"backuppower/internal/httpapi"
)

// Metrics is the coordinator's observability state, mirroring the
// backupd metrics style: expvar types without process-global
// registration (a process may hold many Fabrics — tests do), rendered by
// httpapi.WriteMetrics with a fixed key order.
type Metrics struct {
	// Shard lifecycle counters: attempts dispatched to workers, retry
	// attempts after a failure, hedge chains launched against
	// stragglers, and losing chains cancelled after a first writer won.
	shardsDispatched expvar.Int
	shardsRetried    expvar.Int
	shardsHedged     expvar.Int
	shardsCancelled  expvar.Int

	// rowsMerged counts rows written to the merged output stream.
	rowsMerged expvar.Int

	// Per-worker maps, keyed by worker URL: attempts dispatched,
	// attempts failed, validated rows received, and the identity the
	// worker reported in X-Backupd-Worker.
	workerDispatched expvar.Map
	workerFailed     expvar.Map
	workerRows       expvar.Map
	workerIDs        expvar.Map

	// latencies is a bounded ring of completed-shard wall times; it
	// feeds the p50/p99 gauges and the adaptive hedge trigger.
	mu       sync.Mutex
	latTotal int
	latRing  [latencyRingSize]time.Duration
}

// latencyRingSize bounds how many shard latencies the quantile window
// keeps; old samples age out, so the hedge trigger tracks current pool
// behavior rather than the whole run's history.
const latencyRingSize = 1024

func newMetrics(workers []string) *Metrics {
	m := &Metrics{}
	m.workerDispatched.Init()
	m.workerFailed.Init()
	m.workerRows.Init()
	m.workerIDs.Init()
	for _, u := range workers {
		// Pre-register every pool member so /metrics shows zeros for a
		// worker that never got work (itself a signal).
		m.workerDispatched.Add(u, 0)
		m.workerFailed.Add(u, 0)
		m.workerRows.Add(u, 0)
	}
	return m
}

func (m *Metrics) setWorkerID(url, id string) {
	v := new(expvar.String)
	v.Set(id)
	m.workerIDs.Set(url, v)
}

func (m *Metrics) observeShardLatency(d time.Duration) {
	m.mu.Lock()
	m.latRing[m.latTotal%latencyRingSize] = d
	m.latTotal++
	m.mu.Unlock()
}

// shardLatencyQuantiles reports p50 and p99 over the retained window,
// plus the number of completed shards ever observed.
func (m *Metrics) shardLatencyQuantiles() (p50, p99 time.Duration, n int) {
	m.mu.Lock()
	n = m.latTotal
	kept := n
	if kept > latencyRingSize {
		kept = latencyRingSize
	}
	window := make([]time.Duration, kept)
	copy(window, m.latRing[:kept])
	m.mu.Unlock()
	if kept == 0 {
		return 0, 0, n
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	q := func(f float64) time.Duration {
		i := int(f * float64(kept-1))
		return window[i]
	}
	return q(0.50), q(0.99), n
}

// shardLatency is the "shard_latency" member: completed shards ever
// observed, and p50/p99 over the retained window.
type shardLatency struct {
	Completed int           `json:"completed"`
	P50NS     time.Duration `json:"p50_ns"`
	P99NS     time.Duration `json:"p99_ns"`
}

// sections are the coordinator's top-level metrics members.
func (m *Metrics) sections() []httpapi.MetricsSection {
	return []httpapi.MetricsSection{
		{Key: "rows_merged", Value: &m.rowsMerged},
		{Key: "shard_latency", Value: expvar.Func(func() any {
			p50, p99, n := m.shardLatencyQuantiles()
			return shardLatency{Completed: n, P50NS: p50, P99NS: p99}
		})},
		{Key: "shards", Value: httpapi.MetricsObject{
			{Key: "cancelled", Value: &m.shardsCancelled},
			{Key: "dispatched", Value: &m.shardsDispatched},
			{Key: "hedged", Value: &m.shardsHedged},
			{Key: "retried", Value: &m.shardsRetried},
		}},
		{Key: "workers", Value: httpapi.MetricsObject{
			{Key: "dispatched", Value: &m.workerDispatched},
			{Key: "failed", Value: &m.workerFailed},
			{Key: "ids", Value: &m.workerIDs},
			{Key: "rows", Value: &m.workerRows},
		}},
	}
}

// Write renders the coordinator's own metrics document: rows_merged,
// shard_latency, shards and workers. The Handler surface's /metrics
// holds these same members beside the server's.
func (m *Metrics) Write(w io.Writer) {
	httpapi.WriteMetrics(w, m.sections())
}
