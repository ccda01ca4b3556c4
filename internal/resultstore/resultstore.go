// Package resultstore is the persistent result store behind the grid
// runner: a sweep run once serves every later rerun, deployment, and read
// query from disk without re-simulating rows it has already seen. The
// in-process scenario memo (core's sweep.Cache) is a separate, memory-only
// tier; the store holds whole sweep rows, which the runner consults before
// dispatch.
//
// The store is an LSM-lite: puts append to a CRC-framed write-ahead log
// and land in a memtable; Seal (called when a sweep completes) rewrites
// the memtable as an immutable sorted block and truncates the WAL;
// background compaction folds accumulated blocks together. Open replays
// the WAL, discarding a torn tail, and reads blocks newest-wins, so a
// crash at any byte offset loses at most the unsynced WAL suffix — never
// yields a torn or duplicated row.
//
// Keys are 128-bit stable content fingerprints (sha256-derived — unlike
// the memory tier's maphash keys they do not change across processes)
// with a leading namespace byte: 'R' for point rows, 'P' for
// stochastic-process rows. Payloads are StoredRows in the fixed binary
// layout of row.go (version byte 2); EncodeRow and DecodeRow are the only
// codec, shared by the runner, Scan, and the /v1/results query engine.
package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
)

// Namespace bytes, the first byte of every Key. Point and process rows
// share one WAL and block sequence; the namespace keeps their key spaces
// apart. Records under any other byte (a store directory written before
// the scenario namespace 'S' was retired holds some) are never read: Open
// leaves them out of its index and compaction drops them.
const (
	NSRow byte = 'R'
	// NSProcessRow keys stochastic-process sweep rows. Process rows get
	// their own namespace byte so their fingerprints can never alias a
	// point row's, even if the two invariant digests collided: the
	// namespace is both the key prefix and part of the digested content.
	NSProcessRow byte = 'P'
)

// Key is a stable 128-bit content fingerprint: the namespace byte
// followed by 15 bytes of a sha256-derived digest. Unlike the memory
// tier's maphash keys (seeded per process), a Key is a pure function of
// the scenario content, so it means the same thing across restarts and
// across machines. A colliding pair of distinct contents (probability
// ~n²/2¹²⁰) would silently alias, which we accept the same way
// content-addressed stores do; decoded payloads carry their coordinates
// and are cross-checked against the requesting row before use.
type Key [16]byte

// NewKey derives a key from an outage-invariant content digest plus the
// outage duration. Splitting the outage out mirrors the memory tier's
// cacheKey: batch evaluators digest the invariant content once per axis
// and stamp each point's outage with one short hash instead of re-hashing
// the whole scenario per point.
func NewKey(ns byte, invariant [32]byte, outageNS int64) Key {
	var buf [41]byte
	buf[0] = ns
	copy(buf[1:33], invariant[:])
	binary.LittleEndian.PutUint64(buf[33:41], uint64(outageNS))
	sum := sha256.Sum256(buf[:])
	var k Key
	k[0] = ns
	copy(k[1:], sum[:15])
	return k
}

// Store is the persistent tier's contract. Implementations must be safe
// for concurrent use; Get/Put are best-effort (a corrupt or unwritable
// record degrades to a miss or a dropped put, counted in Stats, never an
// error surfaced to evaluation).
type Store interface {
	// Get returns the payload stored under k. A miss (or a corrupt
	// record, counted) returns ok == false. The returned slice must be
	// treated as immutable.
	Get(k Key) (payload []byte, ok bool)

	// Refuse recounts the Get that just returned k's payload as a
	// recompute: the caller could not serve the payload (an older row
	// version, a coordinate mismatch) and evaluates the row instead.
	Refuse(k Key)

	// Put stores payload under k, overwriting any previous value. The
	// write is buffered in the WAL + memtable until the next Seal.
	Put(k Key, payload []byte)

	// Seal persists the memtable as an immutable sorted block and
	// truncates the WAL — called when a sweep completes, so a finished
	// run's rows survive even an unclean shutdown. A no-op when nothing
	// is pending.
	Seal() error

	// Scan calls fn for every live key in the namespace, deduplicated
	// newest-wins, in ascending key order. fn's error aborts the scan.
	Scan(ns byte, fn func(k Key, payload []byte) error) error

	// Stats reports the store's cumulative counters and current gauges.
	Stats() Stats

	// Close seals pending writes, waits for background compaction, and
	// releases file handles.
	Close() error
}

// Stats is a snapshot of a store's counters. Hits count Gets served;
// Recomputes count Gets that missed or were refused at an evaluation
// site, so the two add up to the lookups made. Each recompute is
// (at most) one simulation the store could not save. HitsRows and
// RecomputesRows count the row namespaces ('R' and 'P'). HitsScenarios
// and RecomputesScenarios counted the retired scenario namespace and read
// 0; they stay because /metrics documents are layout-stable. Field order
// is the JSON key order (alphabetical), pinned for the same reason.
type Stats struct {
	Blocks              int    `json:"blocks"`
	Compactions         uint64 `json:"compactions"`
	CorruptBlocks       uint64 `json:"corrupt_blocks"`
	CorruptRecords      uint64 `json:"corrupt_records"`
	Hits                uint64 `json:"hits"`
	HitsRows            uint64 `json:"hits_rows"`
	HitsScenarios       uint64 `json:"hits_scenarios"`
	Keys                int    `json:"keys"`
	PutErrors           uint64 `json:"put_errors"`
	Puts                uint64 `json:"puts"`
	Recomputes          uint64 `json:"recomputes"`
	RecomputesRows      uint64 `json:"recomputes_rows"`
	RecomputesScenarios uint64 `json:"recomputes_scenarios"`
	Seals               uint64 `json:"seals"`
	WALBytes            int64  `json:"wal_bytes"`
	WALReplayed         uint64 `json:"wal_replayed"`
	WALTornBytes        int64  `json:"wal_torn_bytes"`
}
