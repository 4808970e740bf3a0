package kv

import (
	"fmt"
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
// after it is new to them. This is the handshake a standing query seeds
// with.
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

// lookupTap reads, for every delta it is handed, the delta's key in its
// own map and in a partner map with LookupLocked — the one read a tap may
// make, under the partition lock the delivery holds for every map.
type lookupTap struct {
	own, partner *Map
	bad          []string
	partnerHits  int
}

func (l *lookupTap) OnDeltas(ds []Delta) {
	last := map[string]Delta{} // the group's post-image: its last delta per key
	for _, d := range ds {
		last[d.KeyS] = d
	}
	for _, d := range last {
		e, ok := l.own.LookupLocked(d.Part, d.KeyS)
		if ok == d.Tombstone || (ok && e.Value != d.Value) {
			l.bad = append(l.bad, fmt.Sprintf("%v: delta %+v, own map holds %v (present %v)", d.Key, d, e.Value, ok))
		}
		if _, ok := l.partner.LookupLocked(d.Part, d.KeyS); ok {
			l.partnerHits++
		}
	}
}

// TestTapReadsPartitionAtRest: every map's primary copy of a partition
// shares one lock, so a tap reads its own and a partner map's partition
// with LookupLocked, and sees its own map already holding the group of
// deltas it is handed — from the write kernel and from the wholesale
// resets alike.
// Backup copies keep their own locks.
func TestTapReadsPartitionAtRest(t *testing.T) {
	p := partition.New(8)
	s := NewStore(p, partition.Assign(p.Count(), 2), nil)
	if err := s.SetReplicated(); err != nil {
		t.Fatal(err)
	}
	m, n := s.GetMap("m"), s.GetMap("n")
	for q := range m.segs {
		if m.segs[q].mu != n.segs[q].mu || m.backups[q].mu == n.backups[q].mu || m.backups[q].mu == m.segs[q].mu {
			t.Fatalf("partition %d: primaries must share one lock and backups own theirs", q)
		}
	}
	v := s.View(0)
	for i := 0; i < 20; i++ {
		v.Put("n", i, "partner")
	}
	tap := &lookupTap{own: m, partner: n}
	m.AttachTap(tap)
	for i := 0; i < 20; i++ {
		v.Put("m", i, i)
	}
	v.Put("m", 3, 33)
	v.Delete("m", 4)
	v.PutBatch("m", []Op{{Key: 5, Value: 55}, {Key: 6, Delete: true}, {Key: 5, Value: 555}})
	s.FailNode([]int{0, 1, 2, 3})
	m.Clear()
	m.DetachTap(tap)
	if len(tap.bad) > 0 {
		t.Fatalf("a tap read its own map before the delta it was handed:\n%v", tap.bad)
	}
	if tap.partnerHits == 0 {
		t.Fatal("the tap never found a partner row")
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

// TestTapAttachCleanCut: attaching while writes race never loses or
// duplicates a delta. The reader attaches its tap, then reads each
// partition with ReadPartition, and files only the deltas of partitions it
// has already read — a delta of a partition not yet read is in that read.
// The entries read plus the filed deltas fold to exactly the final map
// content, and no key is read twice. Run with -race.
func TestTapAttachCleanCut(t *testing.T) {
	s := testStore()
	v := s.View(0)
	m := s.GetMap("m")
	v.Put("m", "seed", -1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			v.Put("m", fmt.Sprintf("k%d", i%100), i)
			if i%17 == 0 {
				v.Delete("m", fmt.Sprintf("k%d", (i+3)%100))
			}
		}
	}()

	tap := &cutTap{read: make([]bool, s.Partitioner().Count())}
	m.AttachTap(tap)
	defer m.DetachTap(tap)
	view := map[string]any{}
	for p := 0; p < s.Partitioner().Count(); p++ {
		m.ReadPartition(p, func(entries func(func(Entry) bool)) {
			tap.mu.Lock()
			defer tap.mu.Unlock()
			entries(func(e Entry) bool {
				ks := partition.KeyString(e.Key)
				if _, dup := view[ks]; dup {
					t.Errorf("key %s read twice", ks)
				}
				view[ks] = e.Value
				return true
			})
			tap.read[p] = true
		})
	}
	<-done

	for _, d := range tap.snapshot() {
		if d.Tombstone {
			delete(view, d.KeyS)
		} else {
			view[d.KeyS] = d.Value
		}
	}
	want := map[string]any{}
	for p := 0; p < s.Partitioner().Count(); p++ {
		m.ReadPartition(p, func(entries func(func(Entry) bool)) {
			entries(func(e Entry) bool {
				want[partition.KeyString(e.Key)] = e.Value
				return true
			})
		})
	}
	if len(view) != len(want) {
		t.Fatalf("entries read + filed deltas hold %d keys, the map %d", len(view), len(want))
	}
	for ks, w := range want {
		if got, ok := view[ks]; !ok || got != w {
			t.Fatalf("key %s: entries read + filed deltas = %v (present %v), the map holds %v", ks, got, ok, w)
		}
	}
}

// cutTap files a delta group only if its partition has already been read.
type cutTap struct {
	recTap
	read []bool // guarded by recTap.mu
}

func (c *cutTap) OnDeltas(ds []Delta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.read[ds[0].Part] {
		c.deltas = append(c.deltas, ds...)
	}
}

// TestTapInfos: TapInfos reports each tapped map's tap count, entry count,
// the deltas handed to its taps and its wholesale resets, and only maps
// with a tap. Both counters restart when the tap set empties and refills.
func TestTapInfos(t *testing.T) {
	s := testStore()
	v := s.View(0)
	for i := 0; i < 5; i++ {
		v.Put("a", i, i)
		v.Put("b", i, i)
	}
	a, b := s.GetMap("a"), s.GetMap("b")
	if infos := s.TapInfos(); len(infos) != 0 {
		t.Fatalf("TapInfos with no tap = %+v, want none", infos)
	}
	t1, t2, t3 := &recTap{}, &recTap{}, &recTap{}
	a.AttachTap(t1)
	a.AttachTap(t2)
	b.AttachTap(t3)

	v.Put("a", 0, 100) // one upsert
	v.Put("a", 9, 9)   // one insert
	v.Delete("a", 1)   // one tombstone
	v.Put("b", 7, 7)
	s.RebuildPartitionIndexes(2) // one reset on each map, no deltas
	infos := s.TapInfos()
	want := []TapInfo{
		{Map: "a", Taps: 2, Rows: 5, Deltas: 3, Resets: 1},
		{Map: "b", Taps: 1, Rows: 6, Deltas: 1, Resets: 1},
	}
	if len(infos) != len(want) || infos[0] != want[0] || infos[1] != want[1] {
		t.Fatalf("TapInfos = %+v, want %+v", infos, want)
	}

	// Emptying a's tap set drops it from the report; refilling restarts
	// both counters from the moment of the refill.
	a.DetachTap(t1)
	v.Put("a", 2, 200)
	a.DetachTap(t2)
	v.Put("a", 3, 300)
	a.Clear()
	if infos := s.TapInfos(); len(infos) != 1 || infos[0].Map != "b" {
		t.Fatalf("TapInfos after a's last detach = %+v, want only b", infos)
	}
	a.AttachTap(t1)
	v.Put("a", 4, 400)
	got := s.TapInfos()[0]
	if want := (TapInfo{Map: "a", Taps: 1, Rows: 1, Deltas: 1, Resets: 0}); got != want {
		t.Fatalf("TapInfos after refill = %+v, want %+v", got, want)
	}
}
