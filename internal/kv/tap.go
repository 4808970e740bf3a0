package kv

import (
	"sort"
	"sync"
	"sync/atomic"

	"squery/internal/partition"
)

// Change stream tap. A Tap attached to a map observes every mutation as
// an ordered stream of per-partition deltas — upserts and tombstones —
// each naming the value it replaced. Deltas are emitted inside the same
// partition-write-lock critical section that performs the mutation
// (exactly where inline index maintenance runs), after the partition's
// entries hold it, so the stream is totally ordered per partition and can
// never miss or reorder a write relative to what readers of the map
// observe. Paths that replace a partition's entries wholesale (failover
// promotion, Clear) emit the difference between the entries they replace
// and the ones they install as ordinary deltas, and a rebuild over the
// entries already in place (a migration flip) emits nothing: what a tap
// has seen is exactly what the partition holds.
//
// The partition lock is also what brackets an attach. A consumer attaches
// its tap, then reads each partition with ReadPartition: the read holds
// the partition's read lock, so every delta of that partition reached the
// tap either before the read began, and the entries it hands over already
// hold its effect, or after the read ended, and is new to them. A standing
// query (internal/sql) attaches one tap per source side this way, through
// core.TableRef.Attach. Because the lock is the partition's, for every map
// of the store, a delivery or a ReadPartition callback of partition p also
// sees every other map's partition p at rest: a co-partitioned standing
// join reads its partner row there with LookupLocked.

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
// with the mutated partition's write lock held — the lock of that
// partition in every map of the store: an implementation does bounded work
// under its own lock, never blocks on anything a writer can hold and never
// calls back into the store, except to read the delivered partition of any
// map with LookupLocked.
type Tap interface {
	// OnDeltas delivers one ordered group of deltas for one partition.
	OnDeltas(ds []Delta)
}

// mapTapState holds a map's attached taps, published with the same
// mutex-guarded atomic-pointer pattern as mapIndexState so the no-tap
// fast path costs one atomic load and nothing else, and the accounting
// TapInfos reports since the tap set last went from empty to non-empty.
type mapTapState struct {
	tapMu     sync.Mutex
	taps      atomic.Pointer[[]Tap]
	handed    atomic.Int64 // deltas handed to the taps
	resetBase atomic.Int64 // Resets() when the tap set last filled
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
	if len(cur) == 0 {
		m.handed.Store(0)
		m.resetBase.Store(m.resets.Load())
	}
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

// handTaps delivers one group to every tap and counts it. The caller holds
// the group's partition write lock.
func (m *Map) handTaps(taps []Tap, ds []Delta) {
	m.handed.Add(int64(len(ds)))
	for _, t := range taps {
		t.OnDeltas(ds)
	}
}

// TapInfo is the observable state of one tapped map (sys.arrangements).
// Deltas and Resets count from the moment the map's tap set last went
// from empty to non-empty.
type TapInfo struct {
	Map    string
	Taps   int
	Rows   int   // the map's entry count
	Deltas int64 // deltas handed to the taps
	Resets int64 // wholesale partition replacements
}

// TapInfos returns a point-in-time view of every map with at least one
// tap attached, sorted by map.
func (s *Store) TapInfos() []TapInfo {
	var out []TapInfo
	for _, m := range s.mapList() {
		m.tapMu.Lock()
		info := TapInfo{Map: m.name, Taps: m.TapCount(), Deltas: m.handed.Load(),
			Resets: m.resets.Load() - m.resetBase.Load()}
		m.tapMu.Unlock()
		if info.Taps > 0 {
			info.Rows = m.Size()
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Map < out[j].Map })
	return out
}

// ReadPartition calls fn while it holds partition p's read lock. fn is
// handed entries, which visits the partition's entries in place (the shape
// of an iter.Seq[Entry]) and is valid only during the call. No write to
// the partition, in this map or any other of the store, lands while fn
// runs, so fn sees exactly the state every delta the partition emitted
// before the call produced, and none of the deltas after it.
//
// This deliberately departs from ScanPartition's copy-then-iterate rule:
// the lock is held for all of fn's cost, so a writer to the partition of
// any map — and, behind a waiting writer, any new reader of it — waits for
// fn. It is for attaching a consumer of the change stream, not for
// queries, and fn works under the tap's contract: bounded work under its
// own lock, never blocking on anything a writer can hold, never calling
// back into the store except to read partition p of any map with
// LookupLocked.
func (m *Map) ReadPartition(p int, fn func(entries func(yield func(Entry) bool))) {
	seg := m.segs[p]
	rlockWith(seg.mu, m.store.statsFor(p))
	defer seg.mu.RUnlock()
	fn(func(yield func(Entry) bool) {
		for _, e := range seg.entries {
			if !yield(e) {
				return
			}
		}
	})
}
