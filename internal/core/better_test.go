package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"backuppower/internal/cluster"
	"backuppower/internal/cost"
	"backuppower/internal/workload"
)

// TestBestWinnerOrderIndependent checks that the Figure 5 race's winner
// does not depend on the order its candidates are compared in, for every
// Table 3 configuration, workload and technique set over a 30 s–2 h outage
// axis. Folding "replace the incumbent when the next candidate is better"
// ends at the same winner w under every permutation exactly when w beats
// each other candidate: once w enters the fold nothing displaces it, and a
// candidate w did not beat could come first and keep w out. So the test
// checks that w beats every other candidate, and that better is
// irreflexive and asymmetric; seeded shuffles then fold directly.
func TestBestWinnerOrderIndependent(t *testing.T) {
	f := New(16)
	outages := []time.Duration{30 * time.Second, 90 * time.Second, 5 * time.Minute, 12 * time.Minute,
		30 * time.Minute, 45 * time.Minute, time.Hour, 2 * time.Hour}
	rng := rand.New(rand.NewSource(17))
	type cand struct {
		res  cluster.Result
		rank int
	}
	fold := func(cs []cand) int {
		w := 0
		for i := 1; i < len(cs); i++ {
			if better(cs[i].res, cs[i].rank, cs[w].res, cs[w].rank) {
				w = i
			}
		}
		return cs[w].rank
	}
	for _, b := range cost.Table3(f.Env.PeakPower()) {
		candidates := f.bestCandidates(b)
		for _, w := range workload.All() {
			for _, d := range outages {
				var cs []cand
				for rank, c := range candidates {
					if r, err := f.Evaluate(b, c.tech, w, d); err == nil {
						cs = append(cs, cand{r, rank})
					}
				}
				win := fold(cs)
				var wc cand
				for _, c := range cs {
					if c.rank == win {
						wc = c
					}
				}
				res, tech, err := f.BestForConfigCtx(context.Background(), b, w, d)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", b.Name, w.Name, d, err)
				}
				if res != wc.res || !reflect.DeepEqual(tech, candidates[win].tech) {
					t.Fatalf("%s/%s/%v: race picked %s, fold picked %s", b.Name, w.Name, d, tech.Name(), candidates[win].tech.Name())
				}
				for _, c := range cs {
					if better(c.res, c.rank, c.res, c.rank) {
						t.Fatalf("%s/%s/%v: candidate %d beats itself", b.Name, w.Name, d, c.rank)
					}
					if c.rank == win {
						continue
					}
					if !better(wc.res, wc.rank, c.res, c.rank) || better(c.res, c.rank, wc.res, wc.rank) {
						t.Fatalf("%s/%s/%v: winner %d (%+v) does not strictly beat %d (%+v)",
							b.Name, w.Name, d, win, wc.res, c.rank, c.res)
					}
				}
				for i := 0; i < 4; i++ {
					rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
					if got := fold(cs); got != win {
						t.Fatalf("%s/%s/%v: shuffled fold picked candidate %d, want %d", b.Name, w.Name, d, got, win)
					}
				}
			}
		}
	}
}
