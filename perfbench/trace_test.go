package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	// root [0,100)
	//   a [10,40)         with child a1 [15,20)
	//   b [30,60)         overlaps a: the union [10,60) counts once
	//   c [90,120)        runs past root: only [90,100) counts
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 5, 30, 30}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	lt := Totals(append(spans, Span{ID: 6, Parent: 1, Name: "c", Start: 70, End: 80}))
	if lt.SelfNS["c"] != 40 || lt.Count["c"] != 2 || lt.MeanUS("c") != 0.02 {
		t.Errorf("totals for c: self=%d count=%d mean=%v", lt.SelfNS["c"], lt.Count["c"], lt.MeanUS("c"))
	}
}

func TestCoverage(t *testing.T) {
	spans := []Span{
		// Request 0: the entry takes 100; replayed outside it, layer
		// spans take 80 (a 50 root with a 20 child, and 30) with a gap
		// between them that counts for nothing.
		{ID: 1, Name: "entry.backupd", Req: 0, Start: 0, End: 100},
		{ID: 2, Name: "grid.run", Req: 0, Start: 100, End: 150},
		{ID: 3, Parent: 2, Name: "grid.encode", Req: 0, Start: 110, End: 130},
		{ID: 4, Name: "grid.compile", Req: 0, Start: 160, End: 190},
		// Request 1: the entry takes 100, two overlapping worker spans
		// inside it cover [10,90); its own 20 is untraced.
		{ID: 5, Name: "entry.sweepfront", Req: 1, Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "fabric.worker", Req: 1, Start: 210, End: 260},
		{ID: 7, Parent: 5, Name: "fabric.worker", Req: 1, Start: 240, End: 290},
		// Request 2: the entry takes 100 and the layer replay 100.
		{ID: 8, Name: "entry.backupd", Req: 2, Start: 300, End: 400},
		{ID: 9, Name: "grid.run", Req: 2, Start: 400, End: 500},
		// Spans of no request are ignored.
		{ID: 10, Name: "entry.backupd", Req: -1, Start: 500, End: 900},
	}
	// Layer time 80+80+100 over entry time 300.
	if c := Coverage(spans, "entry."); math.Abs(c-260.0/300) > 1e-12 {
		t.Errorf("Coverage = %v, want 260/300", c)
	}
	// Request 2 in three rounds, one disturbed: entry times 100, 300 and
	// 100, layer times 100, 100 and 90. The fastest rounds give 90/100;
	// summing the rounds would give 290/500.
	rounds := []Span{
		spans[7], spans[8],
		{ID: 11, Name: "entry.backupd", Req: 2, Round: 1, Start: 1000, End: 1300},
		{ID: 12, Name: "grid.run", Req: 2, Round: 1, Start: 1300, End: 1400},
		{ID: 13, Name: "grid.run", Req: 2, Round: 2, Start: 1400, End: 1490},
		{ID: 14, Name: "entry.backupd", Req: 2, Round: 2, Start: 1500, End: 1600},
	}
	if c := Coverage(rounds, "entry."); math.Abs(c-0.9) > 1e-12 {
		t.Errorf("Coverage over rounds = %v, want 0.9", c)
	}
	// An entry span nested under another span is not an entry.
	nested := []Span{
		{ID: 1, Name: "grid.run", Req: 0, Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "entry.backupd", Req: 0, Start: 0, End: 10},
	}
	if c := Coverage(nested, "entry."); c != 0 {
		t.Errorf("Coverage with no root entry span = %v, want 0", c)
	}
}

func TestTracerNestsByCallOrder(t *testing.T) {
	tr := NewTracer(true)
	tr.Begin("root")
	tr.SetReq(4)
	tr.Begin("a")
	tr.Begin("a1")
	time.Sleep(time.Millisecond)
	tr.End()
	tr.End()
	tr.Begin("b")
	tr.End()
	tr.End()
	s := tr.Spans()
	if len(s) != 4 {
		t.Fatalf("%d spans, want 4", len(s))
	}
	parents := map[string]int{}
	for _, sp := range s {
		parents[sp.Name] = sp.Parent
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	if parents["root"] != 0 || parents["a"] != 1 || parents["a1"] != 2 || parents["b"] != 1 {
		t.Errorf("parents = %v", parents)
	}
	if s[1].Req != 4 || s[0].Req != -1 {
		t.Errorf("request ids root=%d a=%d, want -1 and 4", s[0].Req, s[1].Req)
	}
	self := SelfTimes(s)
	var sum int64
	for _, v := range self {
		sum += v
	}
	if root := s[0].End - s[0].Start; sum != root {
		t.Errorf("self times sum to %d, want the root's %d", sum, root)
	}

	off := NewTracer(false)
	off.Begin("x")
	off.End()
	if len(off.Spans()) != 0 {
		t.Error("a disabled tracer recorded spans")
	}
}

func TestWindowedQuantiles(t *testing.T) {
	lat := make([]float64, 200)
	for i := range lat {
		lat[i] = float64(i%20) + 1 // every window holds 1..20
	}
	// Two of ten windows stall.
	for i := 0; i < 40; i++ {
		lat[i] = 1000
	}
	p50, p90 := windowedQuantiles(lat)
	if p50 != 10 || p90 != 18 {
		t.Errorf("p50=%v p90=%v, want 10 and 18", p50, p90)
	}
	if p50, _ := windowedQuantiles([]float64{3, 1, 2}); p50 != 2 {
		t.Errorf("one short window: p50=%v, want 2", p50)
	}
	if !math.IsInf(Quantile([]float64{1, math.Inf(1)}, 0.9), 1) {
		t.Error("a failed request must miss the p90 limit")
	}
}

func TestParseStatCPU(t *testing.T) {
	line := []byte("4242 (back upd) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 37 0 0 20 0 9 0 100 0 0\n")
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2870 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
}
