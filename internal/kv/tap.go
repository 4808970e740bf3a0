package kv

import (
	"sync"
	"sync/atomic"

	"squery/internal/partition"
)

// Change stream tap. A Tap attached to a map observes every mutation as
// an ordered stream of per-partition deltas — upserts and tombstones —
// each naming the value it replaced. Deltas are emitted inside the same
// segment-write-lock critical section that performs the mutation (exactly
// where inline index maintenance runs), so the stream is totally ordered
// per partition and can never miss or reorder a write relative to what
// readers of the map observe. Paths that replace a partition's entries
// wholesale (failover promotion, Clear) emit the difference between the
// entries they replace and the ones they install as ordinary deltas, and a
// rebuild over the entries already in place (a migration flip) emits
// nothing: what a tap has seen is exactly what the partition holds.
//
// The segment lock is also what brackets an attach. A consumer attaches
// its tap, then reads each partition with ReadPartition: the read holds
// the segment read lock, so every delta of that partition reached the tap
// either before the read began, and the entries it hands over already
// hold its effect, or after the read ended, and is new to them. This is
// the substrate the arrangement layer (internal/core) seeds standing
// queries on.

// Delta is one observed mutation of a map partition.
type Delta struct {
	// Part is the partition the key lives in.
	Part int
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
// after AttachTap returns are guaranteed to reach t; use ReadPartition to
// bracket the attach against a consistent base.
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

// ReadPartition calls fn while it holds partition p's segment read lock.
// fn is handed entries, which visits the partition's entries in place
// (the shape of an iter.Seq[Entry]) and is valid only during the call. No
// write to the partition lands while fn runs, so fn sees exactly the state
// every delta the partition emitted before the call produced, and none of
// the deltas after it.
//
// This deliberately departs from ScanPartition's copy-then-iterate rule:
// the lock is held for all of fn's cost, so a writer to the partition —
// and, behind a waiting writer, any new reader of it — waits for fn. It is
// for attaching a consumer of the change stream, not for queries, and fn
// works under the tap's contract: bounded work under its own lock, never
// blocking on anything a writer can hold, never calling back into the
// store.
func (m *Map) ReadPartition(p int, fn func(entries func(yield func(Entry) bool))) {
	seg := m.segs[p]
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	fn(func(yield func(Entry) bool) {
		for _, e := range seg.entries {
			if !yield(e) {
				return
			}
		}
	})
}
