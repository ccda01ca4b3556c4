package httpapi

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"

	"backuppower/internal/core"
	"backuppower/internal/resultstore"
)

// metrics is the server's observability state, built on expvar types but
// deliberately NOT published to the process-global expvar registry:
// tests (and embedders) create many Servers per process, and global
// registration panics on the second one. /metrics renders the same JSON
// expvar would.
type metrics struct {
	// requests counts completed requests per route; statuses counts them
	// per HTTP status code; latencyNS accumulates wall time per route.
	requests  expvar.Map
	statuses  expvar.Map
	latencyNS expvar.Map

	// inflight is the number of requests currently holding an evaluation
	// slot; saturated counts 429 rejections; timeouts counts 504s.
	inflight  expvar.Int
	saturated expvar.Int
	timeouts  expvar.Int

	// store, when non-nil, contributes the persistent result store's
	// counters to the document (set only for -store-dir servers, so the
	// store-less layout is byte-for-byte what it always was).
	store resultstore.Store

	// backend, when non-nil, contributes the sweep backend's own
	// top-level members (the fabric coordinator's shard and worker
	// counters).
	backend SweepBackend
}

func newMetrics() *metrics {
	m := &metrics{}
	m.requests.Init()
	m.statuses.Init()
	m.latencyNS.Init()
	return m
}

func (m *metrics) observe(route string, status int, latencyNS int64) {
	m.requests.Add(route, 1)
	m.statuses.Add(fmt.Sprintf("%d", status), 1)
	m.latencyNS.Add(route, latencyNS)
	switch status {
	case 429:
		m.saturated.Add(1)
	case 504:
		m.timeouts.Add(1)
	}
}

// cacheStats is the "cache" member: the process-wide scenario cache the
// serving framework shares with every in-process evaluation.
type cacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// writeTo renders the metrics document: the server's own members, the
// store's counters under -store-dir, and the sweep backend's members.
func (m *metrics) writeTo(w io.Writer) {
	sections := []MetricsSection{
		{"cache", expvar.Func(func() any {
			hits, misses := core.ScenarioCacheStats()
			return cacheStats{Entries: core.ScenarioCacheLen(), Hits: hits, Misses: misses}
		})},
		{"inflight", &m.inflight},
		{"latency_ns", &m.latencyNS},
		{"requests", &m.requests},
		{"saturated", &m.saturated},
		{"statuses", &m.statuses},
		{"timeouts", &m.timeouts},
	}
	if m.store != nil {
		sections = append(sections, MetricsSection{"store", expvar.Func(func() any { return m.store.Stats() })})
	}
	if m.backend != nil {
		sections = append(sections, m.backend.MetricsSections()...)
	}
	WriteMetrics(w, sections)
}

// MetricsSection is one top-level member of a metrics document: its key
// and its live value, rendered as JSON by the value's String method.
type MetricsSection struct {
	Key   string
	Value expvar.Var
}

// MetricsObject is a JSON object of live values, itself an expvar.Var so
// objects nest. It renders its members in sorted key order, so the
// layout is stable while the values are live counters (expvar Maps
// iterate their own keys sorted too).
type MetricsObject []MetricsSection

func (o MetricsObject) String() string {
	sort.Slice(o, func(i, j int) bool { return o[i].Key < o[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", s.Key, s.Value.String())
	}
	b.WriteByte('}')
	return b.String()
}

// WriteMetrics renders sections as one metrics document on one line. It
// is the one renderer behind every metrics document: backupd's /metrics,
// the coordinator's merged /metrics, and (*fabric.Metrics).Write.
func WriteMetrics(w io.Writer, sections []MetricsSection) {
	io.WriteString(w, MetricsObject(sections).String()+"\n")
}
