package kv

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"squery/internal/metrics"
	"squery/internal/partition"
)

// A writer that waits behind a reader of its partition is a counted lock
// wait, and so is an index read behind a writer: the segment lock is the
// one lock the store has, and lock_waits / lock_wait_ns time it.
func TestSegmentLockWaitsCounted(t *testing.T) {
	s := testStore()
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	v := s.View(0)
	v.Put("m", "k", 0)
	m := s.GetMap("m")
	p := m.PartitionOf("k")
	seg := m.segs[p]
	done := make(chan struct{})
	m.ReadPartition(p, func(func(func(Entry) bool)) {
		go func() {
			v.Put("m", "k", 1)
			close(done)
		}()
		// A new reader is turned away only once the writer is pending.
		for seg.mu.TryRLock() {
			seg.mu.RUnlock()
			runtime.Gosched()
		}
	})
	<-done
	got := reg.Values("kv")["p"+strconv.Itoa(p)]
	if got["lock_waits"] < 1 || got["lock_wait_ns"] <= 0 {
		t.Fatalf("writer waited behind a partition read: lock_waits = %d, lock_wait_ns = %d, want >= 1 and > 0",
			got["lock_waits"], got["lock_wait_ns"])
	}
	if val, _ := v.Get("m", "k"); val != 1 {
		t.Fatalf("k = %v after the waiting write, want 1", val)
	}

	// The planner's estimate and sys.indexes read through the counted
	// lock too: each waits behind a held partition lock and is charged a
	// lock wait. The lock is released only once the reader is parked in
	// RLock: a counted read gets there only past its failed TryRLock, so
	// the wait is certain to be counted.
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	for _, read := range []struct {
		name string
		fn   func()
	}{
		{"EstimateLookupIn", func() {
			// k's value is a bare int: no zone column, so one odd entry.
			if n, ok := m.EstimateLookupIn(p, IndexLookup{Col: "zone", Eq: "z"}); !ok || n != 1 {
				t.Errorf("estimate = %d, %v; want 1, true", n, ok)
			}
		}},
		{"IndexInfos", func() { s.IndexInfos() }},
	} {
		before := reg.Values("kv")["p"+strconv.Itoa(p)]["lock_waits"]
		seg.mu.Lock()
		done := make(chan struct{})
		go func() {
			read.fn()
			close(done)
		}()
		for !parkedInRLock() {
			runtime.Gosched()
		}
		seg.mu.Unlock()
		<-done
		if got := reg.Values("kv")["p"+strconv.Itoa(p)]["lock_waits"]; got <= before {
			t.Fatalf("%s waited behind a held partition lock: lock_waits %d -> %d, want an increment", read.name, before, got)
		}
	}
}

// parkedInRLock reports whether some goroutine is blocked in an RLock.
func parkedInRLock() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "sync.(*RWMutex).RLock")
}

// Concurrent read-modify-write batches over the same keys lose no update:
// the segment lock alone makes each partition group's merge atomic, with
// several of the keys sharing a partition.
func TestApplyBatchConcurrentIncrements(t *testing.T) {
	const workers, rounds, nkeys = 4, 500, 8
	pt := partition.New(3)
	s := NewStore(pt, partition.Assign(pt.Count(), 1), nil)
	keys := make([]partition.Key, nkeys)
	perPart := map[int]int{}
	for i := range keys {
		keys[i] = fmt.Sprintf("ctr-%d", i)
		perPart[pt.Of(keys[i])]++
	}
	shared := 0
	for _, n := range perPart {
		shared = max(shared, n)
	}
	if shared < 2 {
		t.Fatalf("no two keys share a partition: %v", perPart)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := s.View(0)
			for r := 0; r < rounds; r++ {
				v.ApplyBatch("m", keys, func(_ int, _ partition.Key, cur any, ok bool) (any, bool) {
					if !ok {
						return 1, true
					}
					return cur.(int) + 1, true
				})
			}
		}()
	}
	wg.Wait()
	got := s.View(0).GetAll("m", keys)
	for i, k := range keys {
		if got[i] != workers*rounds {
			t.Errorf("%v = %v, want %d", k, got[i], workers*rounds)
		}
	}
}
