package kv

import (
	"sync"
	"sync/atomic"

	"squery/internal/partition"
)

// Change stream tap. A Tap attached to a map observes every mutation as
// an ordered stream of per-partition deltas — upserts and tombstones —
// each naming the value it replaced and stamped with the partition's
// monotonic sequence number and its current epoch. Deltas are emitted
// inside the same segment-write-lock critical section that performs the
// mutation (exactly where inline index maintenance runs), so the stream is
// totally ordered per partition and can never miss or reorder a write
// relative to what readers of the map observe. Paths that replace a
// partition's entries wholesale (failover promotion, Clear) emit the
// difference between the entries they replace and the ones they install
// as ordinary deltas, and a rebuild over the entries already in place (a
// migration flip) emits nothing: what a tap has seen is exactly what the
// partition holds.
//
// This is the substrate the arrangement layer (internal/core) builds
// standing queries on: attach a tap, snapshot each partition with its
// sequence floor, then apply only deltas beyond the floor.

// Delta is one observed mutation of a map partition.
type Delta struct {
	// Map is the mutated map's name.
	Map string
	// Part is the partition the key lives in.
	Part int
	// Seq is the partition's mutation sequence number: strictly
	// increasing per (map, partition), never reset — the watermark stamp
	// consumers deduplicate and order by.
	Seq uint64
	// Key is the mutated key; KeyS its canonical string form.
	Key  partition.Key
	KeyS string
	// Value is the new value for an upsert; nil for a tombstone.
	Value any
	// Old is the value the mutation replaced, valid when HadOld: always on
	// a tombstone, on an upsert of a key the partition held, never on a
	// first insert.
	Old    any
	HadOld bool
	// Tombstone marks a delete.
	Tombstone bool
	// Epoch is the partition's seat epoch at emission time — deltas from
	// before and after a rebalance of the partition are distinguishable.
	Epoch int64
}

// Tap observes a map's change stream. OnDeltas is called on the writer
// with the mutated partition's segment write lock held: an implementation
// does bounded work under its own lock, never blocks on anything a writer
// can hold and never calls back into the store.
type Tap interface {
	// OnDeltas delivers one ordered group of deltas for one partition.
	OnDeltas(ds []Delta)
}

// mapTapState holds a map's attached taps, published with the same
// mutex-guarded atomic-pointer pattern as mapIndexState so the no-tap
// fast path costs one atomic load and nothing else.
type mapTapState struct {
	tapMu sync.Mutex
	taps  atomic.Pointer[[]Tap]
}

// tapSet returns the current taps, nil when none are attached.
func (m *Map) tapSet() []Tap {
	ts := m.taps.Load()
	if ts == nil {
		return nil
	}
	return *ts
}

// AttachTap subscribes t to the map's change stream. Mutations committed
// after AttachTap returns are guaranteed to reach t; use SnapshotPartition
// to bracket the attach against a consistent base.
func (m *Map) AttachTap(t Tap) {
	m.tapMu.Lock()
	defer m.tapMu.Unlock()
	cur := m.tapSet()
	next := make([]Tap, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, t)
	m.taps.Store(&next)
}

// DetachTap unsubscribes t. After DetachTap returns no new delta groups
// begin delivery, though a group already in flight may still complete.
func (m *Map) DetachTap(t Tap) {
	m.tapMu.Lock()
	defer m.tapMu.Unlock()
	cur := m.tapSet()
	next := make([]Tap, 0, len(cur))
	for _, x := range cur {
		if x != t {
			next = append(next, x)
		}
	}
	m.taps.Store(&next)
}

// TapCount returns the number of attached taps (diagnostics/tests).
func (m *Map) TapCount() int { return len(m.tapSet()) }

// SnapshotPartition returns a point-in-time copy of partition p's entries
// together with the partition's current mutation sequence number. A
// consumer that attaches a tap first, then snapshots, can discard
// buffered deltas with Seq <= the returned floor and apply the rest —
// yielding an exactly-once consistent view with no write lock stall.
func (m *Map) SnapshotPartition(p int) ([]Entry, uint64) {
	seg := m.segs[p]
	seg.mu.RLock()
	entries := make([]Entry, 0, len(seg.entries))
	for _, e := range seg.entries {
		entries = append(entries, e)
	}
	seq := seg.seq
	seg.mu.RUnlock()
	return entries, seq
}

// PartitionSeq returns partition p's current mutation sequence number.
func (m *Map) PartitionSeq(p int) uint64 {
	seg := m.segs[p]
	seg.mu.RLock()
	seq := seg.seq
	seg.mu.RUnlock()
	return seq
}
