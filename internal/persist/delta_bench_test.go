package persist

import "testing"

func deltaBenchEntries() []DeltaEntry {
	entries := make([]DeltaEntry, 0, 64)
	for i := 0; i < 64; i++ {
		if i%8 == 7 {
			entries = append(entries, DeltaEntry{Key: i, Tombstone: true})
			continue
		}
		entries = append(entries, DeltaEntry{Key: i, Value: int64(i * 100)})
	}
	return entries
}

// deltaBenchRows is deltaBenchEntries with what a checkpoint really
// persists: string keys and struct rows, definition included.
func deltaBenchRows() []DeltaEntry {
	entries := deltaBenchEntries()
	for i := range entries {
		entries[i].Key = "order-" + string(rune('a'+i%26))
		if !entries[i].Tombstone {
			entries[i].Value = payload{N: i * 100, S: "PICKED_UP"}
		}
	}
	return entries
}

// TestDeltaEncodeAllocs is the alloc-regression gate for the delta
// encode path (satellite: bench-smoke alloc gate): with a pre-sized
// buffer, AppendDeltaSegment must not allocate — for scalar values and
// for struct rows alike. Every checkpoint commit runs it once per
// operator, concurrently with live traffic.
func TestDeltaEncodeAllocs(t *testing.T) {
	for name, entries := range map[string][]DeltaEntry{
		"scalars": deltaBenchEntries(),
		"structs": deltaBenchRows(),
	} {
		buf := make([]byte, 0, 8192)
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			buf, err = AppendDeltaSegment(buf[:0], 7, entries)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: delta encode allocated %v times per run, want 0", name, allocs)
		}
	}
}

// BenchmarkAppendDeltaSegment measures the delta encode path: 64 entries
// (upserts + tombstones) into a reused buffer. Pairs with the alloc gate
// above in bench-smoke.
func BenchmarkAppendDeltaSegment(b *testing.B) {
	benchAppendDelta(b, deltaBenchEntries())
}

// BenchmarkAppendDeltaSegmentStructs is the same with struct rows.
func BenchmarkAppendDeltaSegmentStructs(b *testing.B) {
	benchAppendDelta(b, deltaBenchRows())
}

func benchAppendDelta(b *testing.B, entries []DeltaEntry) {
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendDeltaSegment(buf[:0], 7, entries)
	}
}
