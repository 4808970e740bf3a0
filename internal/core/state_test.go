package core

import (
	"encoding/gob"
	"fmt"
	"testing"

	"squery/internal/kv"
	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/transport"
)

type avgState struct {
	Count int
	Total int
}

func init() { gob.Register(avgState{}) }

func newTestStore() *kv.Store {
	p := partition.New(16)
	return kv.NewStore(p, partition.Assign(16, 1), nil)
}

func ownsAll(partition.Key) bool { return true }

func TestBackendLiveMirroring(t *testing.T) {
	store := newTestStore()
	b := NewBackend("average", 0, store.View(0), Config{Live: true})
	b.Update(1, avgState{Count: 3, Total: 45})
	b.Update(2, avgState{Count: 2, Total: 20})
	// Mirroring is batched; the owning worker flushes at quiescence.
	b.Flush()

	v := store.View(0)
	got, ok := v.Get(LiveMapName("average"), 1)
	if !ok || got.(avgState).Total != 45 {
		t.Fatalf("live map entry = %v, %v", got, ok)
	}
	b.Delete(1)
	b.Flush()
	if _, ok := v.Get(LiveMapName("average"), 1); ok {
		t.Fatal("deleted key still live")
	}
	if got, _ := b.Get(2); got.(avgState).Count != 2 {
		t.Fatal("backend lost local state")
	}
	if b.Size() != 1 {
		t.Fatalf("Size = %d, want 1", b.Size())
	}
}

// TestBackendMirrorBatchFlushes pins the batching contract and its
// constant: updates buffer until 32 have queued (or Flush is called), then
// land as one partition-grouped batch — the size kv groups on the stack.
func TestBackendMirrorBatchFlushes(t *testing.T) {
	store := newTestStore()
	b := NewBackend("op", 0, store.View(0), Config{Live: true})
	name := LiveMapName("op")
	for i := 0; i < 31; i++ {
		b.Update(i, i)
	}
	if store.HasMap(name) && store.GetMap(name).Size() > 0 {
		t.Fatal("live map written before the batch filled")
	}
	b.Update(31, 31) // fills the batch of 32 — auto-flush
	if got := store.GetMap(name).Size(); got != 32 {
		t.Fatalf("live map has %d entries after auto-flush, want 32", got)
	}
	b.Update(32, 32)
	if got := store.GetMap(name).Size(); got != 32 {
		t.Fatalf("live map has %d entries with one update buffered, want 32", got)
	}
	b.Flush()
	if got := store.GetMap(name).Size(); got != 33 {
		t.Fatalf("live map has %d entries after Flush, want 33", got)
	}
}

func TestBackendLiveDisabled(t *testing.T) {
	store := newTestStore()
	b := NewBackend("average", 0, store.View(0), Config{Snapshots: true})
	b.Update(1, avgState{Count: 1, Total: 10})
	if store.HasMap(LiveMapName("average")) && store.GetMap(LiveMapName("average")).Size() > 0 {
		t.Fatal("live map written with Live disabled")
	}
}

func TestFullSnapshotWritesAllKeys(t *testing.T) {
	store := newTestStore()
	b := NewBackend("op", 0, store.View(0), Config{Snapshots: true})
	for i := 0; i < 10; i++ {
		b.Update(i, i*10)
	}
	n, err := b.SnapshotPrepare(1)
	if err != nil || n != 10 {
		t.Fatalf("SnapshotPrepare = %d, %v; want 10", n, err)
	}
	// Untouched state: the next full snapshot still writes everything.
	n, _ = b.SnapshotPrepare(2)
	if n != 10 {
		t.Fatalf("second full snapshot wrote %d, want 10", n)
	}
	// Each key's chain now has two versions.
	v, ok := store.View(0).Get(SnapshotMapName("op"), 3)
	if !ok {
		t.Fatal("snapshot entry missing")
	}
	if c := v.(*Chain); c.Len() != 2 {
		t.Fatalf("chain Len = %d, want 2", c.Len())
	}
}

func TestIncrementalSnapshotWritesOnlyDirty(t *testing.T) {
	store := newTestStore()
	b := NewBackend("op", 0, store.View(0), Config{Snapshots: true, Incremental: true})
	for i := 0; i < 100; i++ {
		b.Update(i, i)
	}
	if n, _ := b.SnapshotPrepare(1); n != 100 {
		t.Fatalf("first incremental wrote %d, want 100", n)
	}
	// Touch 7 keys; only they are written at ssid 2.
	for i := 0; i < 7; i++ {
		b.Update(i, i+1000)
	}
	if n, _ := b.SnapshotPrepare(2); n != 7 {
		t.Fatalf("second incremental wrote %d, want 7", n)
	}
	// An unchanged key resolves at ssid 2 through its ssid-1 version.
	v, _ := store.View(0).Get(SnapshotMapName("op"), 50)
	got, ok := v.(*Chain).At(2)
	if !ok || got.Value != 50 || got.SSID != 1 {
		t.Fatalf("At(2) for unchanged key = %+v, %v", got, ok)
	}
	// A changed key resolves to its new version.
	v, _ = store.View(0).Get(SnapshotMapName("op"), 3)
	got, _ = v.(*Chain).At(2)
	if got.Value != 1003 || got.SSID != 2 {
		t.Fatalf("At(2) for changed key = %+v", got)
	}
}

func TestIncrementalSnapshotTombstone(t *testing.T) {
	store := newTestStore()
	b := NewBackend("op", 0, store.View(0), Config{Snapshots: true, Incremental: true})
	b.Update("gone", 1)
	b.SnapshotPrepare(1)
	b.Delete("gone")
	if n, _ := b.SnapshotPrepare(2); n != 1 {
		t.Fatalf("tombstone snapshot wrote %d entries, want 1", n)
	}
	v, _ := store.View(0).Get(SnapshotMapName("op"), "gone")
	if _, ok := v.(*Chain).At(2); ok {
		t.Fatal("deleted key visible at ssid 2")
	}
	if got, ok := v.(*Chain).At(1); !ok || got.Value != 1 {
		t.Fatal("key missing at ssid 1")
	}
}

func TestSnapshotsDisabledWritesNothing(t *testing.T) {
	store := newTestStore()
	b := NewBackend("op", 0, store.View(0), Config{Live: true})
	b.Update(1, 1)
	if n, err := b.SnapshotPrepare(1); n != 0 || err != nil {
		t.Fatalf("SnapshotPrepare = %d, %v; want 0, nil", n, err)
	}
	if store.HasMap(SnapshotMapName("op")) && store.GetMap(SnapshotMapName("op")).Size() > 0 {
		t.Fatal("snapshot map written with Snapshots disabled")
	}
}

func TestBlobSnapshotAndRestore(t *testing.T) {
	store := newTestStore()
	b := NewBackend("op", 0, store.View(0), Config{JetBlob: true})
	for i := 0; i < 20; i++ {
		b.Update(i, avgState{Count: i, Total: i * 2})
	}
	// The blob is written at the pin; it is not a snapshot entry.
	if n, err := b.SnapshotPrepare(1); n != 0 || err != nil {
		t.Fatalf("blob prepare = %d, %v; want 0 entries", n, err)
	}
	if got := store.GetMap(blobMapName("op")).Size(); got != 1 {
		t.Fatalf("blob map holds %d entries, want 1 blob", got)
	}
	// Blob snapshots are NOT queryable: no snapshot_<op> map appears.
	if store.HasMap(SnapshotMapName("op")) {
		t.Fatal("blob mode created a queryable snapshot map")
	}

	restored := NewBackend("op", 0, store.View(0), Config{JetBlob: true})
	if err := restored.Restore(1, ownsAll); err != nil {
		t.Fatal(err)
	}
	if restored.Size() != 20 {
		t.Fatalf("restored %d keys, want 20", restored.Size())
	}
	got, ok := restored.Get(7)
	if !ok || got.(avgState).Total != 14 {
		t.Fatalf("restored value = %v, %v", got, ok)
	}
}

func TestBlobRestoreMissingSnapshotIsEmpty(t *testing.T) {
	store := newTestStore()
	b := NewBackend("op", 0, store.View(0), Config{JetBlob: true})
	if err := b.Restore(99, ownsAll); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 0 {
		t.Fatal("restore of missing blob produced state")
	}
}

func TestRestoreFromChains(t *testing.T) {
	store := newTestStore()
	cfg := Config{Live: true, Snapshots: true}
	b := NewBackend("op", 0, store.View(0), cfg)
	for i := 0; i < 10; i++ {
		b.Update(i, i)
	}
	b.SnapshotPrepare(1)
	// Post-checkpoint updates are uncommitted.
	b.Update(3, 999)
	b.Update(50, 50) // a brand-new uncommitted key

	restored := NewBackend("op", 0, store.View(0), cfg)
	if err := restored.Restore(1, ownsAll); err != nil {
		t.Fatal(err)
	}
	if got, _ := restored.Get(3); got != 3 {
		t.Fatalf("restored key 3 = %v, want the committed 3", got)
	}
	if _, ok := restored.Get(50); ok {
		t.Fatal("uncommitted key survived restore")
	}
	// Live state must reflect the rollback (Figure 5c).
	if got, _ := store.View(0).Get(LiveMapName("op"), 3); got != 3 {
		t.Fatalf("live key 3 after restore = %v, want 3", got)
	}
	if _, ok := store.View(0).Get(LiveMapName("op"), 50); ok {
		t.Fatal("uncommitted live key still visible after restore — dirty state leaked")
	}
}

func TestRestoreRespectsOwnership(t *testing.T) {
	store := newTestStore()
	cfg := Config{Snapshots: true}
	b := NewBackend("op", 0, store.View(0), cfg)
	for i := 0; i < 10; i++ {
		b.Update(i, i)
	}
	b.SnapshotPrepare(1)

	even := NewBackend("op", 0, store.View(0), cfg)
	even.Restore(1, func(k partition.Key) bool { return k.(int)%2 == 0 })
	if even.Size() != 5 {
		t.Fatalf("even instance restored %d keys, want 5", even.Size())
	}
	if _, ok := even.Get(3); ok {
		t.Fatal("even instance restored an odd key")
	}
}

func TestBackendPanicsOnConflictingConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("JetBlob+Snapshots did not panic")
		}
	}()
	NewBackend("op", 0, newTestStore().View(0), Config{JetBlob: true, Snapshots: true})
}

func TestMapNames(t *testing.T) {
	if got := LiveMapName("stateful map"); got != "statefulmap" {
		t.Errorf("LiveMapName = %q", got)
	}
	if got := SnapshotMapName("stateful map"); got != "snapshot_statefulmap" {
		t.Errorf("SnapshotMapName = %q", got)
	}
}

func TestMultipleInstancesShareSnapshotMap(t *testing.T) {
	store := newTestStore()
	cfg := Config{Snapshots: true}
	b0 := NewBackend("op", 0, store.View(0), cfg)
	b1 := NewBackend("op", 1, store.View(0), cfg)
	b0.Update("a", 1)
	b1.Update("b", 2)
	b0.SnapshotPrepare(1)
	b1.SnapshotPrepare(1)
	if n := store.GetMap(SnapshotMapName("op")).Size(); n != 2 {
		t.Fatalf("shared snapshot map has %d keys, want 2", n)
	}
}

func TestBackendForEach(t *testing.T) {
	b := NewBackend("op", 0, newTestStore().View(0), Config{})
	for i := 0; i < 5; i++ {
		b.Update(fmt.Sprintf("k%d", i), i)
	}
	n := 0
	b.ForEach(func(partition.Key, any) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("ForEach early stop visited %d", n)
	}
}

func TestFullSnapshotTombstonesDeletedKeys(t *testing.T) {
	store := newTestStore()
	b := NewBackend("op", 0, store.View(0), Config{Snapshots: true})
	b.Update("gone", 1)
	b.Update("kept", 2)
	b.SnapshotPrepare(1)
	b.Delete("gone")
	b.SnapshotPrepare(2)

	v, _ := store.View(0).Get(SnapshotMapName("op"), "gone")
	if _, ok := v.(*Chain).At(2); ok {
		t.Fatal("deleted key visible at ssid 2 in full mode")
	}
	if got, ok := v.(*Chain).At(1); !ok || got.Value != 1 {
		t.Fatal("key missing at ssid 1")
	}
	v, _ = store.View(0).Get(SnapshotMapName("op"), "kept")
	if got, ok := v.(*Chain).At(2); !ok || got.Value != 2 {
		t.Fatal("kept key wrong at ssid 2")
	}
}

// TestLatencySamplingConfigurable checks the 1-in-N update-latency
// sampling rate follows Config.LatencySampleEvery (default 8), that
// sampling is a pure function of (seed, update index), and that the
// update counter stays exact regardless of the rate.
func TestLatencySamplingConfigurable(t *testing.T) {
	sampled := func(every int, seed int64, updates int) (int64, int64) {
		store := newTestStore()
		b := NewBackend("op", 0, store.View(0), Config{
			Live: true, LatencySampleEvery: every, LatencySampleSeed: seed,
		})
		count := metrics.NewRegistry().Counter("s", "s", "updates")
		hist := metrics.NewRegistry().Histogram("s", "s", "lat")
		b.SetInstruments(count, hist)
		for i := 0; i < updates; i++ {
			b.Update(partition.Key(fmt.Sprintf("k%d", i)), i)
		}
		return count.Value(), int64(hist.Count())
	}

	if n, h := sampled(0, 0, 800); n != 800 || h != 100 {
		t.Fatalf("default rate: count=%d hist=%d, want 800 and 1-in-8 = 100", n, h)
	}
	if n, h := sampled(4, 0, 800); n != 800 || h != 200 {
		t.Fatalf("every=4: count=%d hist=%d, want 800 and 200", n, h)
	}
	if n, h := sampled(1, 0, 800); n != 800 || h != 800 {
		t.Fatalf("every=1: count=%d hist=%d, want 800 and 800", n, h)
	}
	// Determinism: the same seed samples the same number of updates on
	// repeat runs; a different seed shifts the phase but not the rate.
	_, a := sampled(8, 42, 801)
	_, b := sampled(8, 42, 801)
	if a != b {
		t.Fatalf("same seed sampled differently: %d vs %d", a, b)
	}
}

// TestBlobKeyAllocs guards the append-based blobKey: one allocation (the
// final string conversion), not fmt.Sprintf's boxing and formatting.
func TestBlobKeyAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		_ = blobKey(3, 1234567890123)
	})
	if allocs > 1 {
		t.Fatalf("blobKey allocates %v times per call, want <= 1", allocs)
	}
}

// TestWriteVersionsHopCount pins the checkpoint wire cost via the
// transport's message counter: one message per remote partition group,
// where a Get+Put-per-key loop would pay two per remote key — the
// regression test for the writeVersions double hop.
func TestWriteVersionsHopCount(t *testing.T) {
	const parts, nodes, keys = 16, 4, 64
	p := partition.New(parts)
	a := partition.Assign(parts, nodes)
	tr := transport.NewSim(transport.SimConfig{})
	store := kv.NewStore(p, a, tr)
	b := NewBackend("op", 0, store.View(0), Config{Snapshots: true})
	remoteKeys, remoteParts := 0, 0
	seen := make(map[int]bool)
	for k := 0; k < keys; k++ {
		b.Update(k, k)
		if pt := p.Of(k); a.Owner(pt) != 0 {
			remoteKeys++
			if !seen[pt] {
				seen[pt] = true
				remoteParts++
			}
		}
	}
	before := tr.Stats().Messages
	if _, err := b.SnapshotPrepare(1); err != nil {
		t.Fatal(err)
	}
	sent := tr.Stats().Messages - before
	if want := uint64(remoteParts); sent != want {
		t.Fatalf("checkpoint sent %d messages, want %d (one per remote partition group)", sent, want)
	}
	if perKey := uint64(2 * remoteKeys); sent*4 > perKey {
		t.Fatalf("checkpoint not >=4x cheaper than Get+Put per key: %d vs %d messages", sent, perKey)
	}
}
