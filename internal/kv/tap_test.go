package kv

import (
	"sync"
	"testing"
	"time"

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
// the tap as a delta with the right payload and the value it replaced.
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
	for i, d := range ds {
		if d.KeyS != partition.KeyString(want[i].key) || d.Key != partition.Key(want[i].key) {
			t.Errorf("delta %d key = %v/%q, want %q", i, d.Key, d.KeyS, want[i].key)
		}
		if d.Value != want[i].value || d.Tombstone != want[i].tombstone {
			t.Errorf("delta %d = value %v tombstone %v, want %v/%v", i, d.Value, d.Tombstone, want[i].value, want[i].tombstone)
		}
		if d.HadOld != (want[i].old != nil) || d.Old != want[i].old {
			t.Errorf("delta %d replaced %v (had %v), want %v", i, d.Old, d.HadOld, want[i].old)
		}
	}
}

// TestTapBatchGroups: a PutBatch delivers each partition's slice as one
// ordered group.
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
	for _, d := range ds {
		seen[d.KeyS] = d
	}
	if d := seen[partition.KeyString("k1")]; !d.Tombstone {
		t.Errorf("k1's final batch delta is not the tombstone: %+v", d)
	}
	if d := seen[partition.KeyString("k2")]; d.Value != 2 || d.Tombstone {
		t.Errorf("k2 delta = %+v, want value 2", d)
	}
}

// TestTapReadPartitionBracket: ReadPartition brackets an attach — a write
// to the partition cannot land while fn holds the read, so every delta the
// tap saw before the read is in the entries fn is handed, and every delta
// after it is new to them. This is the handshake the arrangement layer
// seeds standing queries with.
func TestTapReadPartitionBracket(t *testing.T) {
	s := testStore()
	v := s.View(0)
	for i := 0; i < 20; i++ {
		v.Put("m", i, i*i)
	}
	m := s.GetMap("m")
	tap := &recTap{}
	m.AttachTap(tap)
	p := s.Partitioner().Of(7)
	v.Put("m", 7, "pre-read")

	// A writer to the partition started during the read waits for it.
	written := make(chan struct{})
	var seen map[string]any
	m.ReadPartition(p, func(entries func(func(Entry) bool)) {
		go func() {
			v.Put("m", 7, "during-read")
			close(written)
		}()
		select {
		case <-written:
			t.Error("a write to the partition landed while ReadPartition held it")
		case <-time.After(20 * time.Millisecond):
		}
		seen = map[string]any{}
		entries(func(e Entry) bool {
			seen[partition.KeyString(e.Key)] = e.Value
			return true
		})
	})
	<-written
	if got := seen[partition.KeyString(7)]; got != "pre-read" {
		t.Fatalf("read saw key 7 = %v, want the write that preceded it", got)
	}

	// The read's entries plus the deltas after the read fold to the
	// partition's contents; the delta before it is already in the entries.
	ds := tap.snapshot()
	if len(ds) != 2 || ds[0].Value != "pre-read" || ds[1].Value != "during-read" || ds[1].Old != "pre-read" {
		t.Fatalf("tap saw %+v, want the pre-read write then the during-read write replacing it", ds)
	}
	seen[ds[1].KeyS] = ds[1].Value
	n := 0
	m.ReadPartition(p, func(entries func(func(Entry) bool)) {
		entries(func(e Entry) bool {
			n++
			if seen[partition.KeyString(e.Key)] != e.Value {
				t.Errorf("key %v: partition holds %v, the bracketed fold %v", e.Key, e.Value, seen[partition.KeyString(e.Key)])
			}
			return true
		})
	})
	if n != len(seen) {
		t.Fatalf("partition holds %d entries, the bracketed fold %d", n, len(seen))
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
	s.RebuildPartitionIndexes(3)
	if ds := tap.snapshot(); len(ds) != 0 {
		t.Fatalf("RebuildPartitionIndexes(3) delivered %+v, want nothing", ds)
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
