package main

import (
	"encoding/json"
	"math/rand"
	"testing"

	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	w1, p1 := pointInputs(7, 300)
	w2, p2 := pointInputs(7, 300)
	if a, b := sequenceDigest(w1, p1), sequenceDigest(w2, p2); a != b {
		t.Fatalf("point: same seed gave digests %s and %s", a, b)
	}
	for i := range p1 {
		if string(p1[i].Body) != string(p2[i].Body) || p1[i].Path != p2[i].Path {
			t.Fatalf("point request %d differs between two generations with one seed", i)
		}
	}
	w3, p3 := pointInputs(8, 300)
	if sequenceDigest(w1, p1) == sequenceDigest(w3, p3) {
		t.Fatal("point: seeds 7 and 8 gave the same sequence")
	}

	sw1, s1 := mustStudy(t, 7, 2, 5)
	sw2, s2 := mustStudy(t, 7, 2, 5)
	if sequenceDigest(sw1, s1) != sequenceDigest(sw2, s2) {
		t.Fatal("study: same seed gave different sequences")
	}
	rw1, r1 := mustRerun(t, 7, 4)
	rw2, r2 := mustRerun(t, 7, 4)
	if sequenceDigest([]Request{rw1}, r1) != sequenceDigest([]Request{rw2}, r2) {
		t.Fatal("rerun: same seed gave different sequences")
	}
}

func TestPointMix(t *testing.T) {
	_, timed := pointInputs(3, 8000)
	n := map[string]int{}
	for _, r := range timed {
		n[r.Kind]++
	}
	// 5/8, 1/8, 1/8, 1/8 of 8000, within sampling error.
	for kind, want := range map[string]int{"evaluate": 5000, "size": 1000, "best": 1000, "sweep": 1000} {
		if got := n[kind]; got < want*9/10 || got > want*11/10 {
			t.Errorf("%s: %d requests, want about %d", kind, got, want)
		}
	}
}

func decodeSpec(t *testing.T, r Request) grid.Spec {
	t.Helper()
	var sr httpapi.SweepRequest
	if err := json.Unmarshal(r.Body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.Spec
}

func TestStudyOutagesNeverRepeat(t *testing.T) {
	warm, timed := mustStudy(t, 5, 2, 40)
	seen := map[string]bool{}
	for _, r := range append(warm, timed...) {
		spec := decodeSpec(t, r)
		plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: servers})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Points) != studyRows || r.Rows != studyRows {
			t.Fatalf("study has %d rows (declared %d), want %d", len(plan.Points), r.Rows, studyRows)
		}
		for _, o := range spec.Outages {
			if seen[o] {
				t.Fatalf("outage %s repeats: the scenario cache would hit", o)
			}
			seen[o] = true
		}
	}
}

func TestRerunWindowsOverlapByHalf(t *testing.T) {
	_, epoch := mustRerun(t, 9, 5)
	for k := 1; k < len(epoch); k++ {
		prev, cur := decodeSpec(t, epoch[k-1]).Outages, decodeSpec(t, epoch[k]).Outages
		for i := 0; i < rerunSlide; i++ {
			if cur[i] != prev[rerunSlide+i] {
				t.Fatalf("study %d outage %d = %s, want %s from the previous window", k, i, cur[i], prev[rerunSlide+i])
			}
		}
		plan, err := grid.Compile(decodeSpec(t, epoch[k]), grid.CompileOptions{DefaultServers: servers})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Points) != rerunRows {
			t.Fatalf("rerun study has %d rows, want %d", len(plan.Points), rerunRows)
		}
	}
}

func mustStudy(t *testing.T, seed int64, warmN, n int) (warm, timed []Request) {
	t.Helper()
	warm, timed, err := studyInputs(seed, warmN, n)
	if err != nil {
		t.Fatal(err)
	}
	return warm, timed
}

func mustRerun(t *testing.T, seed int64, perEpoch int) (Request, []Request) {
	t.Helper()
	warm, epoch, err := rerunInputs(seed, perEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return warm, epoch
}

// A run long enough to use up the distinct outages fails instead of
// drawing forever.
func TestFreshOutagesFailsWhenExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	used := map[int]bool{}
	for s := maxOutageSeconds - maxFreshOutages + 10; s < maxOutageSeconds; s++ {
		used[s] = true
	}
	if _, err := freshOutages(rng, used, 11); err == nil {
		t.Fatal("freshOutages drew 11 outages when only 10 were left")
	}
	if got, err := freshOutages(rng, used, 10); err != nil || len(got) != 10 {
		t.Fatalf("the last 10 outages: %d drawn, err %v", len(got), err)
	}
	if _, _, err := studyInputs(1, 0, maxFreshOutages/studyOutages+1); err == nil {
		t.Fatal("studyInputs asked for more studies than there are fresh outages and did not fail")
	}
}
