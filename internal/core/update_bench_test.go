package core

import (
	"fmt"
	"math/rand"
	"testing"

	"squery/internal/snapshot"
)

// benchState is an order-state row as the benchmark's orderstate table
// holds it: a struct, so the live map keeps it as a struct row, with a
// sequence number every update moves.
type benchState struct {
	OrderState string
	StampNs    int64
	Seq        int64
}

// BenchmarkBackendUpdate runs Backend.Update over a 50 000-key backend that
// mirrors into a live map carrying a B-tree index on seq, as the
// benchmark's orderstate.seq index does: Zipf(1.1) keys, each update
// moving its key's seq, the mirror flushing every mirrorBatch updates into
// the map and its index. Run it with GOGC=off as well as the default to
// tell the update's own cost from the garbage collector's marking.
func BenchmarkBackendUpdate(b *testing.B) {
	const keys = 50_000
	store := newTestStore()
	cat := NewCatalog(store)
	if err := cat.RegisterJob(snapshot.NewRegistry(4), "orderstate"); err != nil {
		b.Fatal(err)
	}
	if err := cat.CreateIndex("orderstate", "seq", IndexBTree); err != nil {
		b.Fatal(err)
	}
	be := NewBackend("orderstate", 0, store.View(0), Config{Live: true})
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("order-%d", i)
		be.Update(names[i], benchState{OrderState: "NOTIFIED", Seq: int64(i)})
	}
	be.Flush()
	if ref, err := cat.Table("orderstate"); err != nil || !ref.HasIndex("seq", true) {
		b.Fatalf("no B-tree index on orderstate.seq (%v)", err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, keys-1)
	order := make([]string, 1<<14)
	for i := range order {
		order[i] = names[zipf.Uint64()]
	}
	seq := int64(keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		be.Update(order[i%len(order)], benchState{OrderState: "PICKED_UP", StampNs: seq, Seq: seq})
	}
	be.Flush()
}
