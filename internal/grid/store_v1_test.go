package grid

import (
	"bytes"
	"encoding/json"
	"testing"

	"backuppower/internal/resultstore"
)

// seedV1Store opens a fresh store holding every row of plan as the
// version-1 JSON codec wrote it: the same keys a current run consults,
// each payload the row's StoredRow marshaled with "v":1.
func seedV1Store(t *testing.T, plan *Plan) *resultstore.Disk {
	t.Helper()
	rows, err := runPlain(plan)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		sr, ok := storedFromRow(plan.Op, &rows[i])
		if !ok {
			t.Fatalf("row %d is not storable", i)
		}
		sr.V = 1
		payload, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		disk.Put(rowKey(plan.Op, &rows[i].Point), payload)
	}
	if err := disk.Seal(); err != nil {
		t.Fatal(err)
	}
	return disk
}

// TestV1StoreRowsRecomputedAndOverwritten: a store written by the
// version-1 JSON codec still serves correct sweeps. Every old row is a
// miss that recomputes, the NDJSON is byte-identical to a store-less run
// at widths 1, 2 and 8, every old payload is overwritten by a version-2
// one, and the next rerun is served entirely from the store.
func TestV1StoreRowsRecomputedAndOverwritten(t *testing.T) {
	plans := storePlans(t)
	plans["process"] = processStorePlan(t)
	for name, plan := range plans {
		want := storeRunNDJSON(t, plan, 0, RunOptions{})
		for _, width := range []int{1, 2, 8} {
			disk := seedV1Store(t, plan)
			SetRowStore(disk)
			t.Cleanup(func() {
				SetRowStore(nil)
				disk.Close()
			})
			n := uint64(len(plan.Points))

			got := storeRunNDJSON(t, plan, width, RunOptions{})
			if !bytes.Equal(got, want) {
				t.Fatalf("%s width %d: rerun over a v1 store diverged from the store-less bytes", name, width)
			}
			// The store found every key, but the runner refused every v1
			// payload, so every row counts as a recompute, not a hit, and
			// was evaluated and written back once.
			if st := disk.Stats(); st.HitsRows != 0 || st.RecomputesRows != n || st.Puts != 2*n {
				t.Fatalf("%s width %d: v1 rows not recomputed and re-put: %+v for %d rows", name, width, st, n)
			}
			ns := resultstore.NSRow
			if plan.Points[0].Process != nil {
				ns = resultstore.NSProcessRow
			}
			var v2 uint64
			err := disk.Scan(ns, func(_ resultstore.Key, payload []byte) error {
				if _, err := resultstore.DecodeRow(payload); err != nil {
					t.Fatalf("%s width %d: stored payload not version 2: %v", name, width, err)
				}
				v2++
				return nil
			})
			if err != nil || v2 != n {
				t.Fatalf("%s width %d: scanned %d v2 rows of %d (err %v)", name, width, v2, n, err)
			}

			before := disk.Stats()
			if again := storeRunNDJSON(t, plan, width, RunOptions{}); !bytes.Equal(again, want) {
				t.Fatalf("%s width %d: warm rerun diverged", name, width)
			}
			if after := disk.Stats(); after.HitsRows-before.HitsRows != n || after.Puts != before.Puts {
				t.Fatalf("%s width %d: overwritten rows not served: %+v", name, width, after)
			}
		}
	}
}
