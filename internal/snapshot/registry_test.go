package snapshot

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyRegistry(t *testing.T) {
	r := NewRegistry(2)
	if r.LatestCommitted() != NoSnapshot {
		t.Errorf("LatestCommitted = %d, want %d", r.LatestCommitted(), NoSnapshot)
	}
	if r.OldestRetained() != NoSnapshot {
		t.Errorf("OldestRetained = %d, want %d", r.OldestRetained(), NoSnapshot)
	}
	if r.InProgress() != 0 {
		t.Errorf("InProgress = %d, want 0", r.InProgress())
	}
	if r.IsQueryable(1) {
		t.Error("IsQueryable(1) on empty registry")
	}
}

func TestBeginCommitCycle(t *testing.T) {
	r := NewRegistry(2)
	id, err := r.Begin()
	if err != nil || id != 1 {
		t.Fatalf("Begin = %d, %v", id, err)
	}
	if r.InProgress() != 1 {
		t.Fatalf("InProgress = %d", r.InProgress())
	}
	// The in-flight snapshot is not yet queryable (Figure 1: snapshot 9
	// in progress, queries go to 8).
	if r.IsQueryable(1) {
		t.Error("in-progress snapshot is queryable")
	}
	if evicted, err := r.Commit(1); err != nil || len(evicted) != 0 {
		t.Fatalf("first commit evicted %v, %v", evicted, err)
	}
	if r.LatestCommitted() != 1 || !r.IsQueryable(1) {
		t.Fatal("snapshot 1 not committed")
	}
}

func TestConcurrentCheckpointRejected(t *testing.T) {
	r := NewRegistry(2)
	id, _ := r.Begin()
	if _, err := r.Begin(); err == nil {
		t.Fatal("second Begin while in progress did not fail")
	}
	r.Commit(id)
	if _, err := r.Begin(); err != nil {
		t.Fatalf("Begin after commit failed: %v", err)
	}
}

func TestRetentionEvictsOldest(t *testing.T) {
	r := NewRegistry(2)
	var allEvicted []int64
	for i := 0; i < 5; i++ {
		id, err := r.Begin()
		if err != nil {
			t.Fatal(err)
		}
		evicted, err := r.Commit(id)
		if err != nil {
			t.Fatal(err)
		}
		allEvicted = append(allEvicted, evicted...)
	}
	// ids 1..5 committed, retention 2 → 1,2,3 evicted; 4,5 retained.
	want := []int64{1, 2, 3}
	if len(allEvicted) != len(want) {
		t.Fatalf("evicted %v, want %v", allEvicted, want)
	}
	for i := range want {
		if allEvicted[i] != want[i] {
			t.Fatalf("evicted %v, want %v", allEvicted, want)
		}
	}
	got := r.Committed()
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("Committed = %v, want [4 5]", got)
	}
	if r.OldestRetained() != 4 || r.LatestCommitted() != 5 {
		t.Fatalf("oldest/latest = %d/%d", r.OldestRetained(), r.LatestCommitted())
	}
	if r.IsQueryable(3) || !r.IsQueryable(4) {
		t.Fatal("queryability does not match retention")
	}
}

func TestAbort(t *testing.T) {
	r := NewRegistry(2)
	id, _ := r.Begin()
	r.Abort(id)
	if r.InProgress() != 0 {
		t.Fatal("abort did not clear in-progress")
	}
	if r.LatestCommitted() != NoSnapshot {
		t.Fatal("aborted snapshot became committed")
	}
	// Ids are not reused after an abort.
	id2, err := r.Begin()
	if err != nil || id2 != id+1 {
		t.Fatalf("Begin after abort = %d, %v; want %d", id2, err, id+1)
	}
	r.Abort(999) // aborting a non-running id is a no-op
	if r.InProgress() != id2 {
		t.Fatal("stray abort cancelled the wrong checkpoint")
	}
}

func TestCommitWrongIDFails(t *testing.T) {
	r := NewRegistry(2)
	first, _ := r.Begin()
	r.Commit(first)
	id, _ := r.Begin()
	if evicted, err := r.Commit(99); err == nil || evicted != nil {
		t.Fatalf("Commit of wrong id = %v, %v; want an error", evicted, err)
	}
	// The registry is unchanged: the right id is still in progress and
	// commits, and nothing was published or evicted.
	if r.InProgress() != id || r.LatestCommitted() != first || r.IsQueryable(99) {
		t.Fatalf("after a refused commit: in progress %d, latest %d", r.InProgress(), r.LatestCommitted())
	}
	if got := r.Committed(); len(got) != 1 || got[0] != first {
		t.Fatalf("committed = %v, want [%d]", got, first)
	}
	if _, err := r.Commit(id); err != nil {
		t.Fatalf("Commit of the in-progress id after a refused one: %v", err)
	}
}

// TestHoldLeasesRetainedIDs: only a retained id can be held, and a held id
// keeps the floor at or below it after it retires, until its last hold is
// released.
func TestHoldLeasesRetainedIDs(t *testing.T) {
	r := NewRegistry(2)
	if r.HoldLatest() != NoSnapshot || r.Floor() != NoSnapshot {
		t.Fatal("an empty registry held or floored an id")
	}
	commit := func() int64 {
		t.Helper()
		id, err := r.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Commit(id); err != nil {
			t.Fatal(err)
		}
		return id
	}
	one, two := commit(), commit()
	if r.Hold(99) || r.Hold(0) {
		t.Fatal("held an id never committed")
	}
	if !r.Hold(one) || !r.Hold(one) {
		t.Fatal("could not hold the oldest retained id")
	}
	if got := r.HoldLatest(); got != two {
		t.Fatalf("HoldLatest = %d, want %d", got, two)
	}
	commit()
	commit() // one and two retire
	if r.IsQueryable(one) || r.Hold(one) {
		t.Fatal("a retired id is queryable or could be held again")
	}
	if got := r.Floor(); got != one {
		t.Fatalf("Floor with %d held = %d", one, got)
	}
	r.Release(one)
	if got := r.Floor(); got != one {
		t.Fatalf("Floor with one of two holds on %d released = %d", one, got)
	}
	r.Release(one)
	if got := r.Floor(); got != two {
		t.Fatalf("Floor with %d held = %d", two, got)
	}
	r.Release(two)
	r.Release(two) // not held: nothing happens
	if got, want := r.Floor(), r.OldestRetained(); got != want {
		t.Fatalf("Floor with nothing held = %d, want the oldest retained %d", got, want)
	}
}

// TestHoldRacesEviction: a hold taken while commits evict ids either fails
// or holds an id the floor then covers — never an id already retired.
func TestHoldRacesEviction(t *testing.T) {
	r := NewRegistry(2)
	id, _ := r.Begin()
	r.Commit(id)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			id, err := r.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			r.Commit(id)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		n := r.LatestCommitted() - 1
		if r.Hold(n) {
			if f := r.Floor(); f > n {
				t.Fatalf("held %d but the floor is %d", n, f)
			}
			r.Release(n)
		}
	}
}

func TestRetentionDefault(t *testing.T) {
	if NewRegistry(0).Retention() != DefaultRetention {
		t.Error("retention 0 did not default")
	}
	if NewRegistry(-3).Retention() != DefaultRetention {
		t.Error("negative retention did not default")
	}
	if NewRegistry(7).Retention() != 7 {
		t.Error("explicit retention not honoured")
	}
}

// Property: after any number of begin/commit cycles with retention k, the
// registry retains exactly min(cycles, k) ids, they are consecutive, the
// newest equals LatestCommitted, and ids increase monotonically.
func TestRetentionInvariant(t *testing.T) {
	f := func(cyclesRaw, retRaw uint8) bool {
		cycles := int(cyclesRaw%20) + 1
		ret := int(retRaw%5) + 1
		r := NewRegistry(ret)
		for i := 0; i < cycles; i++ {
			id, err := r.Begin()
			if err != nil {
				return false
			}
			r.Commit(id)
		}
		got := r.Committed()
		wantLen := cycles
		if wantLen > ret {
			wantLen = ret
		}
		if len(got) != wantLen {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[i-1]+1 {
				return false
			}
		}
		return got[len(got)-1] == int64(cycles) && r.LatestCommitted() == int64(cycles)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Concurrent readers must always observe a consistent latest id while a
// writer cycles checkpoints — the atomic publication of §VI.A.
func TestConcurrentLatestReads(t *testing.T) {
	r := NewRegistry(2)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			id, err := r.Begin()
			if err != nil {
				t.Errorf("Begin: %v", err)
				return
			}
			r.Commit(id)
		}
		close(done)
	}()
	var lastSeen int64
	for {
		select {
		case <-done:
			wg.Wait()
			return
		default:
		}
		got := r.LatestCommitted()
		if got < lastSeen {
			t.Fatalf("latest committed went backwards: %d after %d", got, lastSeen)
		}
		lastSeen = got
	}
}

func TestSeed(t *testing.T) {
	r := NewRegistry(2)
	if err := r.Seed([]int64{3, 7}); err != nil {
		t.Fatal(err)
	}
	if r.LatestCommitted() != 7 || !r.IsQueryable(3) {
		t.Fatalf("seeded state wrong: latest=%d", r.LatestCommitted())
	}
	id, err := r.Begin()
	if err != nil || id != 8 {
		t.Fatalf("Begin after seed = %d, %v; want 8", id, err)
	}
	r.Commit(id)
	// Seeding twice, or after use, fails.
	if err := r.Seed([]int64{9}); err == nil {
		t.Fatal("re-seed accepted")
	}
	// Retention trims a long seed list.
	r2 := NewRegistry(2)
	if err := r2.Seed([]int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got := r2.Committed()
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("seeded retention = %v", got)
	}
	// Non-ascending ids rejected.
	if err := NewRegistry(2).Seed([]int64{2, 2}); err == nil {
		t.Fatal("non-ascending seed accepted")
	}
	if err := NewRegistry(2).Seed([]int64{0}); err == nil {
		t.Fatal("zero id accepted")
	}
}
