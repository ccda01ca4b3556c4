package resultstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func testKey(ns byte, i int) Key {
	var inv [32]byte
	inv[0] = byte(i)
	inv[1] = byte(i >> 8)
	return NewKey(ns, inv, int64(i))
}

func testPayload(i int) []byte {
	return []byte(fmt.Sprintf(`{"v":1,"i":%d,"pad":"%032d"}`, i, i))
}

func mustOpen(t *testing.T, dir string) *Disk {
	t.Helper()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return d
}

// copyDir snapshots a live store directory, simulating a crash: whatever
// bytes the OS has seen are there, nothing else is flushed first.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestDiskPutGetSealReopen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	const n = 50
	for i := 0; i < n; i++ {
		ns := byte(NSRow)
		if i%2 == 0 {
			ns = NSProcessRow
		}
		d.Put(testKey(ns, i), testPayload(i))
	}
	for i := 0; i < n; i++ {
		ns := byte(NSRow)
		if i%2 == 0 {
			ns = NSProcessRow
		}
		got, ok := d.Get(testKey(ns, i))
		if !ok || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("pre-seal Get(%d): ok=%v got=%q", i, ok, got)
		}
	}
	if err := d.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	st := d.Stats()
	if st.Blocks != 1 || st.Seals != 1 || st.Keys != n || st.WALBytes != 0 {
		t.Fatalf("post-seal stats: %+v", st)
	}
	if st.Puts != n || st.Hits != n || st.Recomputes != 0 {
		t.Fatalf("counter stats: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := mustOpen(t, dir)
	defer d2.Close()
	for i := 0; i < n; i++ {
		ns := byte(NSRow)
		if i%2 == 0 {
			ns = NSProcessRow
		}
		got, ok := d2.Get(testKey(ns, i))
		if !ok || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("reopened Get(%d): ok=%v got=%q", i, ok, got)
		}
	}
	// Both row namespaces count as row hits; the retired scenario
	// counters stay at zero. The keys are distinct per namespace.
	st = d2.Stats()
	if st.HitsRows != n || st.HitsScenarios != 0 || st.Hits != n || st.Keys != n {
		t.Fatalf("namespace hit split: %+v", st)
	}
	for i := 0; i < n; i++ {
		ns := byte(NSProcessRow)
		if i%2 == 0 {
			ns = NSRow
		}
		if _, ok := d2.Get(testKey(ns, i)); ok {
			t.Fatalf("Get(%d) in the other namespace hit", i)
		}
	}
	if st = d2.Stats(); st.RecomputesRows != n || st.RecomputesScenarios != 0 || st.Recomputes != n {
		t.Fatalf("namespace miss split: %+v", st)
	}
}

func TestDiskWALReplayWithoutSeal(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	const n = 20
	for i := 0; i < n; i++ {
		d.Put(testKey(NSRow, i), testPayload(i))
	}
	// A crash: the WAL bytes are on disk (Put writes straight through),
	// but no Seal ever ran. A snapshot of the directory must replay
	// every completed record.
	crash := copyDir(t, dir)
	d.Close()

	d2 := mustOpen(t, crash)
	defer d2.Close()
	st := d2.Stats()
	if st.WALReplayed != n || st.WALTornBytes != 0 || st.Keys != n {
		t.Fatalf("replay stats: %+v", st)
	}
	for i := 0; i < n; i++ {
		got, ok := d2.Get(testKey(NSRow, i))
		if !ok || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("replayed Get(%d): ok=%v got=%q", i, ok, got)
		}
	}
}

// TestDiskTornWAL truncates the WAL at arbitrary byte offsets — a crash
// mid-write — and asserts the invariant the package doc promises: the
// store reopens cleanly, replays exactly a prefix of the completed
// records (never a torn or duplicated row), and a subsequent re-put of
// the lost keys restores the full set.
func TestDiskTornWAL(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	const n = 12
	recEnds := make([]int64, 0, n) // WAL length after each put
	for i := 0; i < n; i++ {
		d.Put(testKey(NSRow, i), testPayload(i))
		recEnds = append(recEnds, d.Stats().WALBytes)
	}
	snap := copyDir(t, dir)
	d.Close()
	walLen := recEnds[n-1]

	// Arbitrary offsets: every record boundary, plus seeded-random cuts
	// inside records.
	offsets := append([]int64{0}, recEnds...)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 24; i++ {
		offsets = append(offsets, rng.Int63n(walLen))
	}
	for _, cut := range offsets {
		crash := copyDir(t, snap)
		if err := os.Truncate(filepath.Join(crash, walName), cut); err != nil {
			t.Fatal(err)
		}
		d2 := mustOpen(t, crash)
		st := d2.Stats()

		// The replayed prefix: all records whose end fits under the cut.
		intact := 0
		for intact < n && recEnds[intact] <= cut {
			intact++
		}
		if int(st.WALReplayed) != intact {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, st.WALReplayed, intact)
		}
		wantTorn := cut
		if intact > 0 {
			wantTorn = cut - recEnds[intact-1]
		}
		if st.WALTornBytes != wantTorn {
			t.Fatalf("cut %d: torn bytes %d, want %d", cut, st.WALTornBytes, wantTorn)
		}
		for i := 0; i < intact; i++ {
			got, ok := d2.Get(testKey(NSRow, i))
			if !ok || !bytes.Equal(got, testPayload(i)) {
				t.Fatalf("cut %d: intact record %d: ok=%v got=%q", cut, i, ok, got)
			}
		}
		for i := intact; i < n; i++ {
			if _, ok := d2.Get(testKey(NSRow, i)); ok {
				t.Fatalf("cut %d: torn record %d resurrected", cut, i)
			}
		}
		// Backfill exactly the missing suffix and verify the store is
		// whole again — the shape a rerun sweep produces.
		for i := intact; i < n; i++ {
			d2.Put(testKey(NSRow, i), testPayload(i))
		}
		if err := d2.Seal(); err != nil {
			t.Fatalf("cut %d: Seal: %v", cut, err)
		}
		if st := d2.Stats(); st.Keys != n {
			t.Fatalf("cut %d: backfilled keys %d, want %d", cut, st.Keys, n)
		}
		d2.Close()
	}
}

func TestDiskCorruptBlockDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	const n = 8
	for i := 0; i < n; i++ {
		d.Put(testKey(NSRow, i), testPayload(i))
	}
	if err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Flip one byte in the middle of the block: records after the flip
	// fail their CRC and must degrade to counted misses, never bad data.
	entries, _ := os.ReadDir(dir)
	var blockPath string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == blockSuffix {
			blockPath = filepath.Join(dir, e.Name())
		}
	}
	if blockPath == "" {
		t.Fatal("no block file written")
	}
	data, err := os.ReadFile(blockPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(blockPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir)
	defer d2.Close()
	okCount := 0
	for i := 0; i < n; i++ {
		got, ok := d2.Get(testKey(NSRow, i))
		if ok {
			if !bytes.Equal(got, testPayload(i)) {
				t.Fatalf("corrupt block returned wrong payload for %d: %q", i, got)
			}
			okCount++
		}
	}
	st := d2.Stats()
	if okCount == n {
		t.Fatal("corruption had no effect (flip landed nowhere?)")
	}
	if st.CorruptRecords == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	if int(st.Recomputes) != n-okCount {
		t.Fatalf("misses %d for %d corrupt records: %+v", st.Recomputes, n-okCount, st)
	}
	// Re-putting repairs: the memtable shadows the corrupt block.
	for i := 0; i < n; i++ {
		d2.Put(testKey(NSRow, i), testPayload(i))
	}
	for i := 0; i < n; i++ {
		got, ok := d2.Get(testKey(NSRow, i))
		if !ok || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("repaired Get(%d): ok=%v got=%q", i, ok, got)
		}
	}
}

func TestDiskCompactionNewestWins(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	defer d.Close()
	// Three generations of the same keys across separate blocks, plus a
	// unique key per generation; the merged view keeps the newest value
	// of each.
	const gens, keys = 3, 10
	for g := 0; g < gens; g++ {
		for i := 0; i < keys; i++ {
			d.Put(testKey(NSRow, i), []byte(fmt.Sprintf("gen%d-%d", g, i)))
		}
		d.Put(testKey(NSRow, 100+g), testPayload(100+g))
		if err := d.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Blocks != gens {
		t.Fatalf("blocks %d, want %d", st.Blocks, gens)
	}
	d.Compact()
	st := d.Stats()
	if st.Blocks != 1 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	if st.Keys != keys+gens {
		t.Fatalf("keys %d, want %d", st.Keys, keys+gens)
	}
	for i := 0; i < keys; i++ {
		got, ok := d.Get(testKey(NSRow, i))
		if !ok || string(got) != fmt.Sprintf("gen%d-%d", gens-1, i) {
			t.Fatalf("Get(%d) after compaction: ok=%v got=%q", i, ok, got)
		}
	}
	for g := 0; g < gens; g++ {
		if _, ok := d.Get(testKey(NSRow, 100+g)); !ok {
			t.Fatalf("unique key of gen %d lost in compaction", g)
		}
	}
}

func TestDiskAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for g := 0; g < compactAt+2; g++ {
		d.Put(testKey(NSRow, g), testPayload(g))
		if err := d.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	d.Close() // waits for the background merge
	d2 := mustOpen(t, dir)
	defer d2.Close()
	st := d2.Stats()
	if st.Blocks >= compactAt+2 {
		t.Fatalf("auto-compaction never ran: %d blocks", st.Blocks)
	}
	for g := 0; g < compactAt+2; g++ {
		if _, ok := d2.Get(testKey(NSRow, g)); !ok {
			t.Fatalf("key %d lost across auto-compaction", g)
		}
	}
}

func TestDiskScan(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	defer d.Close()
	for i := 0; i < 6; i++ {
		d.Put(testKey(NSRow, i), []byte("sealed"))
		d.Put(testKey(NSProcessRow, i), []byte("process"))
	}
	if err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	// Shadow two sealed rows and add one new from the memtable.
	d.Put(testKey(NSRow, 0), []byte("shadowed"))
	d.Put(testKey(NSRow, 3), []byte("shadowed"))
	d.Put(testKey(NSRow, 6), []byte("memtable"))

	var got []Key
	shadowed := 0
	err := d.Scan(NSRow, func(k Key, payload []byte) error {
		if k[0] != NSRow {
			t.Fatalf("scan leaked namespace %c", k[0])
		}
		got = append(got, k)
		if string(payload) == "shadowed" {
			shadowed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("scanned %d keys, want 7", len(got))
	}
	if shadowed != 2 {
		t.Fatalf("memtable shadowing: saw %d shadowed payloads, want 2", shadowed)
	}
	for i := 1; i < len(got); i++ {
		if !(bytes.Compare(got[i-1][:], got[i][:]) < 0) {
			t.Fatalf("scan order not ascending at %d", i)
		}
	}
	procKeys := 0
	if err := d.Scan(NSProcessRow, func(k Key, payload []byte) error {
		if k[0] != NSProcessRow || string(payload) != "process" {
			t.Fatalf("process scan leaked %c/%q", k[0], payload)
		}
		procKeys++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if procKeys != 6 {
		t.Fatalf("scanned %d process keys, want 6", procKeys)
	}
	// fn's error aborts.
	calls := 0
	sentinel := fmt.Errorf("stop")
	if err := d.Scan(NSRow, func(Key, []byte) error { calls++; return sentinel }); err != sentinel {
		t.Fatalf("scan error not propagated: %v", err)
	}
	if calls != 1 {
		t.Fatalf("scan continued after error: %d calls", calls)
	}
}

func TestNewKeyNamespaceAndDistinctness(t *testing.T) {
	var inv [32]byte
	a := NewKey(NSRow, inv, 1)
	b := NewKey(NSRow, inv, 2)
	c := NewKey(NSProcessRow, inv, 1)
	if a[0] != NSRow || c[0] != NSProcessRow {
		t.Fatalf("namespace byte not leading: %v %v", a, c)
	}
	if a == b || a == c {
		t.Fatalf("keys collide: %v %v %v", a, b, c)
	}
	inv[5] = 1
	if NewKey(NSRow, inv, 1) == a {
		t.Fatal("invariant digest ignored")
	}
}

// TestBuildBlockPresized: the block image is allocated once at its exact
// size and holds the same bytes as framing each record onto a growing
// buffer, so sizing it up front changed no block on disk.
func TestBuildBlockPresized(t *testing.T) {
	payloads := map[Key][]byte{}
	var keys []Key
	for i := 0; i < 40; i++ {
		k := testKey(NSRow, i)
		payloads[k] = bytes.Repeat([]byte{byte(i)}, i*7)
		keys = append(keys, k)
	}
	sortKeys(keys)
	buf, offs, lens := buildBlock(keys, payloads)
	if cap(buf) != len(buf) {
		t.Fatalf("block image cap %d for %d bytes: not presized exactly", cap(buf), len(buf))
	}
	want := []byte(blockMagic)
	for i, k := range keys {
		if offs[i] != int64(len(want)) {
			t.Fatalf("record %d offset %d, want %d", i, offs[i], len(want))
		}
		want = appendRecord(want, k, payloads[k])
		if lens[i] != len(want)-int(offs[i]) {
			t.Fatalf("record %d length %d", i, lens[i])
		}
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("presized block bytes differ from the appended framing")
	}
}

// TestDiskCloseDuringCompaction: Close issued while a background
// compaction runs returns, waits the merge out (no goroutine of the store
// survives it), and a reopen serves every sealed key from one block.
func TestDiskCloseDuringCompaction(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	d := mustOpen(t, dir)
	const perBlock = 400
	pad := bytes.Repeat([]byte("x"), 256)
	for g := 0; g < compactAt; g++ {
		for i := 0; i < perBlock; i++ {
			d.Put(testKey(NSRow, g*perBlock+i), append(testPayload(g*perBlock+i), pad...))
		}
		if err := d.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if !d.compacting.Load() {
		t.Fatal("the last seal did not start a background compaction")
	}
	done := make(chan error, 1)
	go func() { done <- d.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return while a compaction ran")
	}
	if st := d.Stats(); st.Compactions != 1 {
		t.Fatalf("Close abandoned the merge: %+v", st)
	}
	// The compaction goroutine has called wg.Done; give it the moment it
	// needs to exit before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after Close, baseline %d", n, baseline)
	}

	d2 := mustOpen(t, dir)
	defer d2.Close()
	if st := d2.Stats(); st.Blocks != 1 || st.Keys != compactAt*perBlock {
		t.Fatalf("reopened stats: %+v", st)
	}
	for i := 0; i < compactAt*perBlock; i++ {
		got, ok := d2.Get(testKey(NSRow, i))
		if !ok || !bytes.Equal(got, append(testPayload(i), pad...)) {
			t.Fatalf("sealed key %d lost across Close during compaction", i)
		}
	}
}
