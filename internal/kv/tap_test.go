package kv

import (
	"sync"
	"testing"

	"squery/internal/partition"
)

// recTap records everything a tap observes. Its callbacks run under the
// mutated segment's write lock, so it only appends — exactly the contract
// real consumers follow.
type recTap struct {
	mu     sync.Mutex
	deltas []Delta
}

func (r *recTap) OnDeltas(ds []Delta) {
	r.mu.Lock()
	r.deltas = append(r.deltas, ds...)
	r.mu.Unlock()
}

func (r *recTap) snapshot() []Delta {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Delta(nil), r.deltas...)
}

// TestTapObservesMutationsInOrder: every put, overwrite and delete reaches
// the tap as a delta with the right payload and the value it replaced, and
// sequence numbers are strictly increasing per partition.
func TestTapObservesMutationsInOrder(t *testing.T) {
	s := testStore()
	v := s.View(0)
	v.Put("m", "seed", "before-attach")

	tap := &recTap{}
	s.GetMap("m").AttachTap(tap)
	if got := s.GetMap("m").TapCount(); got != 1 {
		t.Fatalf("TapCount = %d, want 1", got)
	}

	v.Put("m", "a", 1)
	v.Put("m", "a", 2) // overwrite
	v.Put("m", "b", "x")
	v.Delete("m", "a")
	v.Delete("m", "missing") // no-op: nothing was removed

	ds := tap.snapshot()
	if len(ds) != 4 {
		t.Fatalf("got %d deltas, want 4 (the missing-key delete is not a mutation): %+v", len(ds), ds)
	}
	want := []struct {
		key        string
		value, old any
		tombstone  bool
	}{
		{"a", 1, nil, false},
		{"a", 2, 1, false},
		{"b", "x", nil, false},
		{"a", nil, 2, true},
	}
	lastSeq := map[int]uint64{}
	for i, d := range ds {
		if d.Map != "m" {
			t.Errorf("delta %d map = %q, want m", i, d.Map)
		}
		if d.KeyS != partition.KeyString(want[i].key) || d.Key != partition.Key(want[i].key) {
			t.Errorf("delta %d key = %v/%q, want %q", i, d.Key, d.KeyS, want[i].key)
		}
		if d.Value != want[i].value || d.Tombstone != want[i].tombstone {
			t.Errorf("delta %d = value %v tombstone %v, want %v/%v", i, d.Value, d.Tombstone, want[i].value, want[i].tombstone)
		}
		if d.HadOld != (want[i].old != nil) || d.Old != want[i].old {
			t.Errorf("delta %d replaced %v (had %v), want %v", i, d.Old, d.HadOld, want[i].old)
		}
		if last := lastSeq[d.Part]; d.Seq <= last {
			t.Errorf("delta %d seq %d not increasing after %d in partition %d", i, d.Seq, last, d.Part)
		}
		lastSeq[d.Part] = d.Seq
	}
}

// TestTapBatchGroups: a PutBatch delivers each partition's slice as one
// ordered group whose sequence numbers continue the partition's stream.
func TestTapBatchGroups(t *testing.T) {
	s := testStore()
	v := s.View(0)
	tap := &recTap{}
	s.GetMap("m") // create before attaching
	s.GetMap("m").AttachTap(tap)

	ops := []Op{
		{Key: "k1", Value: 1},
		{Key: "k2", Value: 2},
		{Key: "k3", Value: 3},
		{Key: "k1", Delete: true},
	}
	v.PutBatch("m", ops)

	ds := tap.snapshot()
	if len(ds) != 4 {
		t.Fatalf("got %d deltas from a 4-op batch, want 4: %+v", len(ds), ds)
	}
	seen := map[string]Delta{}
	lastSeq := map[int]uint64{}
	for _, d := range ds {
		seen[d.KeyS] = d
		if last := lastSeq[d.Part]; d.Seq <= last {
			t.Errorf("batch delta seq %d not increasing after %d in partition %d", d.Seq, last, d.Part)
		}
		lastSeq[d.Part] = d.Seq
	}
	if d := seen[partition.KeyString("k1")]; !d.Tombstone {
		t.Errorf("k1's final batch delta is not the tombstone: %+v", d)
	}
	if d := seen[partition.KeyString("k2")]; d.Value != 2 || d.Tombstone {
		t.Errorf("k2 delta = %+v, want value 2", d)
	}
}

// TestTapSnapshotFloor: SnapshotPartition's sequence floor brackets the
// attach — deltas at or below the floor are already in the snapshot,
// deltas after it continue from the floor. This is the exactly-once
// handshake the arrangement layer builds on.
func TestTapSnapshotFloor(t *testing.T) {
	s := testStore()
	v := s.View(0)
	for i := 0; i < 20; i++ {
		v.Put("m", i, i*i)
	}
	m := s.GetMap("m")
	tap := &recTap{}
	m.AttachTap(tap)

	p := s.Partitioner().Of(7)
	entries, floor := m.SnapshotPartition(p)
	if floor != m.PartitionSeq(p) {
		t.Fatalf("snapshot floor %d != current seq %d", floor, m.PartitionSeq(p))
	}
	before := len(entries)

	v.Put("m", 7, "post-snapshot")
	ds := tap.snapshot()
	var post []Delta
	for _, d := range ds {
		if d.Part == p && d.Seq > floor {
			post = append(post, d)
		}
	}
	if len(post) != 1 || post[0].Value != "post-snapshot" {
		t.Fatalf("deltas beyond floor = %+v, want exactly the post-snapshot write", post)
	}
	if post[0].Seq != floor+1 {
		t.Fatalf("post-snapshot seq = %d, want floor+1 = %d", post[0].Seq, floor+1)
	}
	entries2, _ := m.SnapshotPartition(p)
	if len(entries2) != before {
		t.Fatalf("overwrite changed entry count %d -> %d", before, len(entries2))
	}
}

// TestTapResetOnWholesaleReplace: paths that swap a partition's entries
// without per-key mutations deliver the difference as ordinary deltas —
// Clear and ClearMap one tombstone per entry, each naming the value that
// went — and a rebuild over the entries in place delivers nothing.
func TestTapResetOnWholesaleReplace(t *testing.T) {
	s := testStore()
	v := s.View(0)
	m := s.GetMap("m")
	fill := func() {
		for i := 0; i < 10; i++ {
			v.Put("m", i, i*i)
		}
	}
	for name, clear := range map[string]func(){"Clear": m.Clear, "ClearMap": func() { s.ClearMap("m") }} {
		fill()
		tap := &recTap{}
		m.AttachTap(tap)
		clear()
		m.DetachTap(tap)
		ds := tap.snapshot()
		if len(ds) != 10 {
			t.Fatalf("%s delivered %d deltas, want one tombstone per entry (10): %+v", name, len(ds), ds)
		}
		for _, d := range ds {
			k := d.Key.(int)
			if !d.Tombstone || !d.HadOld || d.Old != k*k {
				t.Errorf("%s delivered %+v, want a tombstone of %d replacing %d", name, d, k, k*k)
			}
		}
	}

	fill()
	tap := &recTap{}
	m.AttachTap(tap)
	seq := m.PartitionSeq(3)
	s.RebuildPartitionIndexes(3)
	if ds := tap.snapshot(); len(ds) != 0 || m.PartitionSeq(3) != seq {
		t.Fatalf("RebuildPartitionIndexes(3) delivered %+v and moved seq %d -> %d, want nothing", ds, seq, m.PartitionSeq(3))
	}
}

// TestDetachTapStopsDelivery: after DetachTap no new deltas arrive, and
// other taps keep receiving.
func TestDetachTapStopsDelivery(t *testing.T) {
	s := testStore()
	v := s.View(0)
	m := s.GetMap("m")
	a, b := &recTap{}, &recTap{}
	m.AttachTap(a)
	m.AttachTap(b)
	if got := m.TapCount(); got != 2 {
		t.Fatalf("TapCount = %d, want 2", got)
	}

	v.Put("m", "k", 1)
	m.DetachTap(a)
	v.Put("m", "k", 2)

	dsA := a.snapshot()
	dsB := b.snapshot()
	if len(dsA) != 1 {
		t.Fatalf("detached tap saw %d deltas, want 1", len(dsA))
	}
	if len(dsB) != 2 {
		t.Fatalf("remaining tap saw %d deltas, want 2", len(dsB))
	}
	if got := m.TapCount(); got != 1 {
		t.Fatalf("TapCount after detach = %d, want 1", got)
	}
}
