package kv

import (
	"fmt"
	"testing"
)

// TestPutBatchAllocs gates the mirror flush: a batch of up to smallBatch
// overwrites of string-keyed rows — what core.Backend.Flush sends once per
// few records — groups, locks and applies without allocating, whatever the
// partition count. (Taps and replication allocate per group by design and
// are off here.)
func TestPutBatchAllocs(t *testing.T) {
	v := testStore().View(0)
	keys := make([]any, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("order-%d", i*37)
	}
	val := any(MapRow{"zone": "z1"})
	for _, n := range []int{1, 4, smallBatch} {
		ops := make([]Op, n)
		for j := range ops {
			ops[j] = Op{Key: keys[j], Value: val}
		}
		v.PutBatch("m", ops)
		if a := testing.AllocsPerRun(200, func() { v.PutBatch("m", ops) }); a != 0 {
			t.Errorf("PutBatch of %d ops allocated %.1f times, want 0", n, a)
		}
	}
}

// TestGroupingStableAscending checks both sort paths against the contract
// applyGroup relies on: groups ascend by partition, and within a group op
// positions keep their original order (the last write to a key wins).
func TestGroupingStableAscending(t *testing.T) {
	s := testStore()
	for _, n := range []int{1, 2, smallBatch, smallBatch + 1, 300} {
		ops := make([]Op, n)
		for i := range ops {
			ops[i].Key = fmt.Sprintf("k%d", (i*7919)%97) // repeats: several ops per key
		}
		var gr grouping
		gr.plan(s, ops)
		seen, lastP := 0, -1
		for lo := 0; lo < gr.n; {
			g, hi := gr.next(lo)
			if g.p <= lastP {
				t.Fatalf("n=%d: group partition %d after %d", n, g.p, lastP)
			}
			lastP = g.p
			for j, i := range g.idx {
				if s.part.Of(ops[i].Key) != g.p {
					t.Fatalf("n=%d: op %d grouped under partition %d", n, i, g.p)
				}
				if j > 0 && g.idx[j-1] >= i {
					t.Fatalf("n=%d: group %d not in original order: %v", n, g.p, g.idx)
				}
			}
			seen += len(g.idx)
			lo = hi
		}
		if seen != n {
			t.Fatalf("n=%d: groups cover %d ops", n, seen)
		}
	}
}
