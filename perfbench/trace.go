package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one traced call into a layer.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int    `json:"req"`   // request the span served; -1 for none
	Round  int    `json:"round"` // which repetition of the request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory. Spans nest by call order: a span begun
// while another is open is its child. The traced replay is sequential,
// so one stack of open spans describes the call path. A disabled Tracer
// records nothing, which gives the untraced timing of the same replay.
type Tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	open  []int // indices into spans of the open spans, innermost last
	req   int
	round int
}

func NewTracer(on bool) *Tracer {
	t := &Tracer{on: on, t0: time.Now(), req: -1}
	if on {
		t.spans = make([]Span, 0, 1<<16)
	}
	return t
}

// SetReq tags the spans begun from now on with request id.
func (t *Tracer) SetReq(id int) {
	t.mu.Lock()
	t.req = id
	t.mu.Unlock()
}

// SetRound tags the spans begun from now on with repetition round.
func (t *Tracer) SetRound(round int) {
	t.mu.Lock()
	t.round = round
	t.mu.Unlock()
}

// Begin opens a span named name under the innermost open span.
func (t *Tracer) Begin(name string) {
	if !t.on {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: t.req, Round: t.round, Start: now})
	t.open = append(t.open, len(t.spans)-1)
	t.mu.Unlock()
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if !t.on {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	n := len(t.open)
	t.spans[t.open[n-1]].End = now
	t.open = t.open[:n-1]
	t.mu.Unlock()
}

// Aside opens a span under the innermost open span without becoming the
// parent of later spans, and returns the function that closes it. Other
// goroutines use it for work they do on behalf of the open span, such
// as a worker serving a shard of the coordinator's request; such spans
// may overlap each other.
func (t *Tracer) Aside(name string) (end func()) {
	if !t.on {
		return func() {}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: t.req, Round: t.round, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[i].End = now
		t.mu.Unlock()
	}
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteFile writes the spans as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that its children
// cover. Children that overlap each other are counted once, and the
// parts of a child outside its parent are ignored.
func SelfTimes(spans []Span) []int64 {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := pos[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, spans []Span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// LayerTotals sums self time and counts spans per span name.
type LayerTotals struct {
	SelfNS map[string]int64
	Count  map[string]int
}

func Totals(spans []Span) LayerTotals {
	self := SelfTimes(spans)
	lt := LayerTotals{SelfNS: map[string]int64{}, Count: map[string]int{}}
	for i, s := range spans {
		lt.SelfNS[s.Name] += self[i]
		lt.Count[s.Name]++
	}
	return lt
}

// MeanUS is the mean self time of the spans named name, in microseconds.
func (lt LayerTotals) MeanUS(name string) float64 {
	if lt.Count[name] == 0 {
		return 0
	}
	return float64(lt.SelfNS[name]) / float64(lt.Count[name]) / 1e3
}

// Coverage is the share of the program entry's time that layer spans
// account for, summed over requests. A request's entry spans are the
// root spans whose names start with entryPrefix; their duration is its
// traced end-to-end time. Its layer time is the part of each entry span
// that its descendants cover (spans recorded while the program served
// it, such as fabric workers serving shards), plus the self time of the
// request's spans outside any entry span: the same request replayed
// through the layers' public functions. A request served in several
// rounds counts its fastest round of each time: a busy machine only ever
// adds time. Work in the entry that no layer span accounts for lowers
// the share below 1.
func Coverage(spans []Span, entryPrefix string) float64 {
	self := SelfTimes(spans)
	pos := make(map[int]int, len(spans))
	entry := make([]bool, len(spans))
	inEntry := make([]bool, len(spans)) // descends from an entry span
	for i, s := range spans {
		pos[s.ID] = i
		if p, ok := pos[s.Parent]; ok && s.Parent != 0 {
			inEntry[i] = entry[p] || inEntry[p]
		} else {
			entry[i] = strings.HasPrefix(s.Name, entryPrefix)
		}
	}
	type key struct{ req, round int }
	type acc struct{ entry, layers int64 }
	per := map[key]*acc{}
	for i, s := range spans {
		if s.Req < 0 || inEntry[i] {
			continue
		}
		k := key{s.Req, s.Round}
		a := per[k]
		if a == nil {
			a = &acc{}
			per[k] = a
		}
		if entry[i] {
			a.entry += s.End - s.Start
			a.layers += s.End - s.Start - self[i]
		} else {
			a.layers += self[i]
		}
	}
	fastest := map[int]*acc{}
	for k, a := range per {
		f := fastest[k.req]
		if f == nil {
			fastest[k.req] = &acc{a.entry, a.layers}
			continue
		}
		f.entry, f.layers = min(f.entry, a.entry), min(f.layers, a.layers)
	}
	var sum acc
	for _, f := range fastest {
		sum.entry += f.entry
		sum.layers += f.layers
	}
	if sum.entry == 0 {
		return 0
	}
	return float64(sum.layers) / float64(sum.entry)
}
