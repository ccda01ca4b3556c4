package core

import (
	"testing"
	"time"

	"backuppower/internal/cost"
	"backuppower/internal/resultstore"
	"backuppower/internal/technique"
	"backuppower/internal/workload"
)

// TestSetResultStoreIsNoOp pins the retired scenario namespace: with a
// store attached through the kept SetResultStore hook, scalar and batch
// evaluation still memoize in the scenario cache exactly as without it,
// and nothing reaches the store — no put, no lookup, no key.
func TestSetResultStoreIsNoOp(t *testing.T) {
	disk, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetResultStore(disk)
	defer func() {
		SetResultStore(nil)
		ResetScenarioCache()
		disk.Close()
	}()
	ResetScenarioCache()

	f := New(8)
	backup := cost.NoDG(f.Env.PeakPower())
	tech := technique.Sleep{LowPower: true}
	wl := workload.Specjbb()
	outages := []time.Duration{5 * time.Minute, 10 * time.Minute, 30 * time.Minute, time.Hour}
	h0, m0 := ScenarioCacheStats()
	scalar, err := f.Evaluate(backup, tech, wl, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := f.EvaluateBatch(backup, tech, wl, outages)
	if err != nil {
		t.Fatal(err)
	}
	if batch[2] != scalar {
		t.Fatalf("batch point diverged from the memoized scalar result")
	}
	if h1, m1 := ScenarioCacheStats(); h1-h0 != 1 || m1-m0 != uint64(len(outages)) {
		t.Fatalf("scenario cache hits=%d misses=%d, want 1 and %d", h1-h0, m1-m0, len(outages))
	}
	if st := disk.Stats(); st != (resultstore.Stats{}) {
		t.Fatalf("evaluation touched the attached store: %+v", st)
	}
}
