package wire_test

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/persist"
	"squery/internal/wire"
)

// coldRow is a workload's state row: all the codec is ever told about it
// is this gob.Register call, the one workloads already make.
type coldRow struct {
	Count int64
	Zone  string
	Seen  time.Time
}

func init() { gob.Register(coldRow{}) }

func coldRowAt(i int) coldRow {
	return coldRow{Count: int64(i), Zone: fmt.Sprintf("zone-%d", i%3), Seen: time.Unix(int64(1700000000+i), 0).UTC()}
}

// TestColdStartRestore writes a persisted store (full base + delta) and a
// Jet blob, empties the codec's type table — a new process that has never
// encoded coldRow — and restores both. Each segment and the blob must
// carry what a reader needs on its own.
func TestColdStartRestore(t *testing.T) {
	dir := t.TempDir()
	ps, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]coldRow{}
	var full []persist.Entry
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		want[k] = coldRowAt(i)
		full = append(full, persist.Entry{Key: k, Value: want[k]})
	}
	if err := ps.WriteSegment(1, "op", full); err != nil {
		t.Fatal(err)
	}
	if err := ps.Commit(1); err != nil {
		t.Fatal(err)
	}
	want["k03"] = coldRowAt(103)
	delete(want, "k04")
	delta := []persist.DeltaEntry{{Key: "k03", Value: want["k03"]}, {Key: "k04", Tombstone: true}}
	if err := ps.WriteDeltaSegment(2, "op", 1, delta); err != nil {
		t.Fatal(err)
	}
	if err := ps.Commit(2); err != nil {
		t.Fatal(err)
	}

	p := partition.New(16)
	store := kv.NewStore(p, partition.Assign(16, 1), nil)
	cfg := core.Config{JetBlob: true}
	b := core.NewBackend("op", 0, store.View(0), cfg)
	for k, v := range want {
		b.Update(k, v)
	}
	if _, err := b.SnapshotPrepare(7); err != nil {
		t.Fatal(err)
	}

	// Each stream on its own: the delta, then — cold again — its base.
	wire.ResetTypeTable()
	ps2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := ps2.ReadDeltaSegment(2, "op"); err != nil || !reflect.DeepEqual(got, delta) {
		t.Fatalf("cold delta segment: %v, %v", got, err)
	}
	wire.ResetTypeTable()
	if got, err := ps2.ReadSegment(1, "op"); err != nil || !reflect.DeepEqual(got, full) {
		t.Fatalf("cold full segment: %v, %v", got, err)
	}
	wire.ResetTypeTable()
	state, err := ps2.ReadState(2, "op")
	if err != nil {
		t.Fatalf("cold restore of the persisted store: %v", err)
	}
	if len(state) != len(want) {
		t.Fatalf("restored %d keys, want %d", len(state), len(want))
	}
	for _, e := range state {
		if w := want[e.Key.(string)]; e.Value != w {
			t.Errorf("key %v restored as %#v, want %#v", e.Key, e.Value, w)
		}
	}

	wire.ResetTypeTable()
	b2 := core.NewBackend("op", 0, store.View(0), cfg)
	if err := b2.Restore(7); err != nil {
		t.Fatalf("cold restore of the Jet blob: %v", err)
	}
	if b2.Size() != len(want) {
		t.Fatalf("blob restored %d keys, want %d", b2.Size(), len(want))
	}
	for k, w := range want {
		if got, ok := b2.Get(k); !ok || got != w {
			t.Errorf("blob key %s restored as %#v, want %#v", k, got, w)
		}
	}
}
