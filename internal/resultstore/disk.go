package resultstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// On-disk framing, shared by the WAL and block files. One record is
//
//	magic(1) key(16) len(4, LE) payload(len) crc32(4, LE over all prior bytes)
//
// so any prefix of a file parses unambiguously: the first malformed or
// checksum-failing record marks a torn tail (WAL) or a corrupt block
// suffix, and everything before it is intact.
const (
	recordMagic    = 0xB5
	recordOverhead = 1 + 16 + 4 + 4

	// maxPayload is a sanity bound on one record's payload; a length
	// field beyond it is treated as corruption rather than allocated.
	maxPayload = 16 << 20

	// autoSealBytes caps the WAL between explicit Seals: a long-running
	// daemon taking scalar puts (no sweep completion to trigger Seal)
	// still rolls its WAL into blocks.
	autoSealBytes = 4 << 20

	// compactAt is the block count that triggers background compaction
	// after a seal.
	compactAt = 8

	walName     = "wal.log"
	blockPrefix = "block-"
	blockSuffix = ".blk"
	blockMagic  = "RSBLK001"
)

// blockFile is one immutable sorted block. Replaced blocks (after
// compaction) keep their handle open until Close so concurrent readers
// holding refs never race a file removal.
type blockFile struct {
	f    *os.File
	path string
	seq  uint64
	keys int
}

// blockRef locates one record inside a block.
type blockRef struct {
	b   *blockFile
	off int64
	n   int // whole-record length
}

// Disk is the persistent Store: WAL + memtable for in-flight rows,
// immutable sorted blocks for sealed ones, newest-wins on overlap.
// Safe for concurrent use.
type Disk struct {
	dir string

	mu       sync.RWMutex
	wal      *os.File
	walBytes int64
	mem      map[Key][]byte
	blocks   []*blockFile // ascending seq
	index    map[Key]blockRef
	nextSeq  uint64
	garbage  []*blockFile // compacted-away blocks, closed at Close
	closed   bool

	compacting atomic.Bool
	wg         sync.WaitGroup

	hitsRows, hitsOther                 atomic.Uint64
	missRows, missOther                 atomic.Uint64
	puts, putErrors, seals, compactions atomic.Uint64
	corruptRecords, corruptBlocks       atomic.Uint64
	walReplayed                         atomic.Uint64
	walTornBytes                        atomic.Int64
}

// Open opens (or creates) a store rooted at dir: leftover temp files are
// removed, block files are loaded newest-wins, and the WAL is replayed
// into the memtable with any torn tail truncated away.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	d := &Disk{
		dir:   dir,
		mem:   map[Key][]byte{},
		index: map[Key]blockRef{},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "tmp-"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, blockPrefix) && strings.HasSuffix(name, blockSuffix):
			seq, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, blockPrefix), blockSuffix), 16, 64)
			if perr != nil {
				continue // not ours
			}
			f, oerr := os.Open(filepath.Join(dir, name))
			if oerr != nil {
				d.corruptBlocks.Add(1)
				continue
			}
			d.blocks = append(d.blocks, &blockFile{f: f, path: filepath.Join(dir, name), seq: seq})
			if seq >= d.nextSeq {
				d.nextSeq = seq + 1
			}
		}
	}
	sort.Slice(d.blocks, func(i, j int) bool { return d.blocks[i].seq < d.blocks[j].seq })
	// Index ascending by seq so a newer block's entry overwrites an older
	// one's — newest wins, the same rule compaction applies.
	live := d.blocks[:0]
	for _, b := range d.blocks {
		if d.loadBlock(b) {
			live = append(live, b)
		} else {
			b.f.Close()
		}
	}
	d.blocks = live

	walPath := filepath.Join(dir, walName)
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	d.wal = wal
	if err := d.replayWAL(); err != nil {
		wal.Close()
		return nil, err
	}
	return d, nil
}

// loadBlock indexes one block file, stopping at the first malformation
// (the valid prefix stays usable). Returns false when the file is not a
// block at all.
func (d *Disk) loadBlock(b *blockFile) bool {
	data, err := os.ReadFile(b.path)
	if err != nil || len(data) < len(blockMagic) || string(data[:len(blockMagic)]) != blockMagic {
		d.corruptBlocks.Add(1)
		return false
	}
	off := int64(len(blockMagic))
	rest := data[len(blockMagic):]
	for len(rest) > 0 {
		k, _, n, ok := parseRecord(rest)
		if !ok {
			d.corruptRecords.Add(1)
			break
		}
		if liveNS(k) {
			d.index[k] = blockRef{b: b, off: off, n: n}
			b.keys++
		}
		off += int64(n)
		rest = rest[n:]
	}
	return true
}

// replayWAL loads the WAL into the memtable and truncates a torn tail.
func (d *Disk) replayWAL() error {
	data, err := os.ReadFile(filepath.Join(d.dir, walName))
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	off := 0
	for off < len(data) {
		k, payload, n, ok := parseRecord(data[off:])
		if !ok {
			break
		}
		off += n
		if !liveNS(k) {
			continue
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		d.mem[k] = cp
		d.walReplayed.Add(1)
	}
	if torn := len(data) - off; torn > 0 {
		d.walTornBytes.Add(int64(torn))
		if err := d.wal.Truncate(int64(off)); err != nil {
			return fmt.Errorf("resultstore: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := d.wal.Seek(int64(off), 0); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	d.walBytes = int64(off)
	return nil
}

// appendRecord frames (k, payload) onto dst.
func appendRecord(dst []byte, k Key, payload []byte) []byte {
	dst = append(dst, recordMagic)
	dst = append(dst, k[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[len(dst)-len(payload)-21:]))
}

// parseRecord reads one record off the front of data. ok is false on any
// malformation — bad magic, short frame, oversized length, bad checksum.
func parseRecord(data []byte) (k Key, payload []byte, n int, ok bool) {
	if len(data) < recordOverhead || data[0] != recordMagic {
		return k, nil, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data[17:21]))
	if plen > maxPayload || len(data) < recordOverhead+plen {
		return k, nil, 0, false
	}
	n = recordOverhead + plen
	body := data[:n-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[n-4:n]) {
		return k, nil, 0, false
	}
	copy(k[:], data[1:17])
	return k, data[21 : 21+plen], n, true
}

// liveNS reports whether k is under a namespace the store still serves.
// Records under a retired one (the scenario namespace 'S') are left out
// of the index at Open and dropped by the next compaction.
func liveNS(k Key) bool { return k[0] == NSRow || k[0] == NSProcessRow }

func (d *Disk) hit(k Key) {
	switch k[0] {
	case NSRow, NSProcessRow:
		d.hitsRows.Add(1)
	default:
		d.hitsOther.Add(1)
	}
}

func (d *Disk) miss(k Key) {
	switch k[0] {
	case NSRow, NSProcessRow:
		d.missRows.Add(1)
	default:
		d.missOther.Add(1)
	}
}

// Get implements Store: memtable first, then the block index. A corrupt
// block record is counted and degrades to a miss — the caller recomputes
// and the next Put repairs the entry.
func (d *Disk) Get(k Key) ([]byte, bool) {
	d.mu.RLock()
	if p, ok := d.mem[k]; ok {
		d.mu.RUnlock()
		d.hit(k)
		return p, true
	}
	ref, ok := d.index[k]
	d.mu.RUnlock()
	if !ok {
		d.miss(k)
		return nil, false
	}
	payload, err := ref.read(k)
	if err != nil {
		d.corruptRecords.Add(1)
		d.miss(k)
		return nil, false
	}
	d.hit(k)
	return payload, true
}

// Refuse implements Store.
func (d *Disk) Refuse(k Key) {
	switch k[0] {
	case NSRow, NSProcessRow:
		d.hitsRows.Add(^uint64(0))
		d.missRows.Add(1)
	default:
		d.hitsOther.Add(^uint64(0))
		d.missOther.Add(1)
	}
}

// read fetches and revalidates one block record. The block handle stays
// open for the store's lifetime, so this is safe against concurrent
// compaction.
func (r blockRef) read(k Key) ([]byte, error) {
	buf := make([]byte, r.n)
	if _, err := r.b.f.ReadAt(buf, r.off); err != nil {
		return nil, err
	}
	gotKey, payload, _, ok := parseRecord(buf)
	if !ok || gotKey != k {
		return nil, fmt.Errorf("resultstore: corrupt block record")
	}
	return payload, nil
}

// Put implements Store: append to the WAL, land in the memtable. Write
// failures are counted and dropped (the store is a cache — evaluation
// must not fail because a disk did).
func (d *Disk) Put(k Key, payload []byte) {
	if len(payload) > maxPayload {
		d.putErrors.Add(1)
		return
	}
	rec := appendRecord(make([]byte, 0, recordOverhead+len(payload)), k, payload)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.putErrors.Add(1)
		return
	}
	if _, err := d.wal.Write(rec); err != nil {
		d.mu.Unlock()
		d.putErrors.Add(1)
		return
	}
	d.walBytes += int64(len(rec))
	cp := make([]byte, len(payload))
	copy(cp, payload)
	d.mem[k] = cp
	needSeal := d.walBytes >= autoSealBytes
	d.mu.Unlock()
	d.puts.Add(1)
	if needSeal {
		d.Seal()
	}
}

// Seal implements Store: memtable -> sorted block (tmp + fsync + rename,
// so the block appears atomically), then WAL truncation. A crash between
// the rename and the truncation merely leaves duplicate entries that the
// next Open deduplicates (the memtable shadows blocks). Triggers
// background compaction past the block-count threshold.
func (d *Disk) Seal() error {
	d.mu.Lock()
	if len(d.mem) == 0 || d.closed {
		d.mu.Unlock()
		return nil
	}
	keys := make([]Key, 0, len(d.mem))
	for k := range d.mem {
		keys = append(keys, k)
	}
	sortKeys(keys)
	seq := d.nextSeq
	d.nextSeq++

	buf, offs, lens := buildBlock(keys, d.mem)
	b, err := d.writeBlock(seq, buf)
	if err != nil {
		d.mu.Unlock()
		d.putErrors.Add(1)
		return err
	}
	b.keys = len(keys)
	for i, k := range keys {
		d.index[k] = blockRef{b: b, off: offs[i], n: lens[i]}
	}
	d.blocks = append(d.blocks, b)
	d.mem = map[Key][]byte{}
	if err := d.wal.Truncate(0); err == nil {
		d.wal.Seek(0, 0)
		d.walBytes = 0
	}
	d.seals.Add(1)
	startCompact := len(d.blocks) >= compactAt && d.compacting.CompareAndSwap(false, true)
	if startCompact {
		snapshot := append([]*blockFile(nil), d.blocks...)
		mergedSeq := d.nextSeq
		d.nextSeq++
		d.wg.Add(1)
		go d.compact(snapshot, mergedSeq)
	}
	d.mu.Unlock()
	return nil
}

// buildBlock frames the records of keys (sorted) into one block image,
// returning each record's offset and length. The image is sized up front
// from the payload lengths, so it is allocated once and never regrown;
// its bytes are exactly the magic followed by appendRecord per key.
func buildBlock(keys []Key, payloads map[Key][]byte) (buf []byte, offs []int64, lens []int) {
	size := len(blockMagic)
	for _, k := range keys {
		size += recordOverhead + len(payloads[k])
	}
	buf = append(make([]byte, 0, size), blockMagic...)
	offs = make([]int64, len(keys))
	lens = make([]int, len(keys))
	for i, k := range keys {
		offs[i] = int64(len(buf))
		buf = appendRecord(buf, k, payloads[k])
		lens[i] = len(buf) - int(offs[i])
	}
	return buf, offs, lens
}

// writeBlock writes buf to a temp file, fsyncs, renames it into place,
// and returns an open handle. Callers hold d.mu.
func (d *Disk) writeBlock(seq uint64, buf []byte) (*blockFile, error) {
	path := filepath.Join(d.dir, fmt.Sprintf("%s%016x%s", blockPrefix, seq, blockSuffix))
	tmp, err := os.CreateTemp(d.dir, "tmp-block-*")
	if err != nil {
		return nil, err
	}
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &blockFile{f: f, path: path, seq: seq}, nil
}

// compact merges a snapshot of blocks (newest-wins) into one block under
// mergedSeq, reserved before any concurrent seal so ordering is
// preserved: snapshot blocks < merged < anything sealed afterwards. Old
// files are removed but their handles stay open until Close, keeping
// in-flight readers safe.
func (d *Disk) compact(snapshot []*blockFile, mergedSeq uint64) {
	defer d.wg.Done()
	defer d.compacting.Store(false)

	merged := map[Key][]byte{}
	for _, b := range snapshot { // ascending seq: later entries overwrite
		data, err := os.ReadFile(b.path)
		if err != nil || len(data) < len(blockMagic) {
			continue
		}
		rest := data[len(blockMagic):]
		for len(rest) > 0 {
			k, payload, n, ok := parseRecord(rest)
			if !ok {
				d.corruptRecords.Add(1)
				break
			}
			rest = rest[n:]
			if !liveNS(k) {
				continue
			}
			cp := make([]byte, len(payload))
			copy(cp, payload)
			merged[k] = cp
		}
	}
	keys := make([]Key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sortKeys(keys)
	buf, offs, lens := buildBlock(keys, merged)

	// Close waits for this goroutine before releasing any handle, so the
	// merge completes even when Close has already begun.
	d.mu.Lock()
	defer d.mu.Unlock()
	b, err := d.writeBlock(mergedSeq, buf)
	if err != nil {
		d.putErrors.Add(1)
		return
	}
	b.keys = len(keys)
	old := map[*blockFile]bool{}
	for _, s := range snapshot {
		old[s] = true
	}
	// Repoint only entries still served by a snapshot block: anything
	// sealed during the merge is newer and keeps winning.
	for i, k := range keys {
		if ref, ok := d.index[k]; ok && old[ref.b] {
			d.index[k] = blockRef{b: b, off: offs[i], n: lens[i]}
		}
	}
	live := make([]*blockFile, 0, len(d.blocks)-len(snapshot)+1)
	inserted := false
	for _, bf := range d.blocks {
		if old[bf] {
			os.Remove(bf.path)
			d.garbage = append(d.garbage, bf)
			continue
		}
		if !inserted && bf.seq > mergedSeq {
			live = append(live, b)
			inserted = true
		}
		live = append(live, bf)
	}
	if !inserted {
		live = append(live, b)
	}
	d.blocks = live
	d.compactions.Add(1)
}

// Compact forces a synchronous full compaction (tests and tooling; the
// background trigger is the normal path).
func (d *Disk) Compact() {
	d.mu.Lock()
	if len(d.blocks) < 2 || d.closed || !d.compacting.CompareAndSwap(false, true) {
		d.mu.Unlock()
		return
	}
	snapshot := append([]*blockFile(nil), d.blocks...)
	mergedSeq := d.nextSeq
	d.nextSeq++
	d.wg.Add(1)
	d.mu.Unlock()
	d.compact(snapshot, mergedSeq)
}

// Scan implements Store: the merged newest-wins view of blocks and
// memtable, ascending key order within the namespace.
func (d *Disk) Scan(ns byte, fn func(k Key, payload []byte) error) error {
	d.mu.RLock()
	refs := make(map[Key]blockRef, len(d.index))
	for k, ref := range d.index {
		if k[0] == ns {
			refs[k] = ref
		}
	}
	inMem := make(map[Key][]byte, len(d.mem))
	for k, p := range d.mem {
		if k[0] == ns {
			inMem[k] = p
		}
	}
	d.mu.RUnlock()

	keys := make([]Key, 0, len(refs)+len(inMem))
	for k := range refs {
		if _, shadowed := inMem[k]; !shadowed {
			keys = append(keys, k)
		}
	}
	for k := range inMem {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		payload, ok := inMem[k]
		if !ok {
			p, err := refs[k].read(k)
			if err != nil {
				d.corruptRecords.Add(1)
				continue
			}
			payload = p
		}
		if err := fn(k, payload); err != nil {
			return err
		}
	}
	return nil
}

// Stats implements Store.
func (d *Disk) Stats() Stats {
	d.mu.RLock()
	blocks := len(d.blocks)
	keys := len(d.index)
	for k := range d.mem {
		if _, ok := d.index[k]; !ok {
			keys++
		}
	}
	walBytes := d.walBytes
	d.mu.RUnlock()
	hr, ho := d.hitsRows.Load(), d.hitsOther.Load()
	mr, mo := d.missRows.Load(), d.missOther.Load()
	return Stats{
		Blocks:         blocks,
		Compactions:    d.compactions.Load(),
		CorruptBlocks:  d.corruptBlocks.Load(),
		CorruptRecords: d.corruptRecords.Load(),
		Hits:           hr + ho,
		HitsRows:       hr,
		Keys:           keys,
		PutErrors:      d.putErrors.Load(),
		Puts:           d.puts.Load(),
		Recomputes:     mr + mo,
		RecomputesRows: mr,
		Seals:          d.seals.Load(),
		WALBytes:       walBytes,
		WALReplayed:    d.walReplayed.Load(),
		WALTornBytes:   d.walTornBytes.Load(),
	}
}

// Close implements Store: seal pending writes, wait out compaction,
// release every handle. Marking the store closed before the wait stops
// Put, Seal and Compact from starting another background compaction, so
// once Close returns no goroutine of the store is left running.
func (d *Disk) Close() error {
	d.Seal()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	if err := d.wal.Close(); err != nil && first == nil {
		first = err
	}
	for _, b := range d.blocks {
		if err := b.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, b := range d.garbage {
		b.f.Close()
	}
	return first
}

func sortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for x := 0; x < len(a); x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
}
