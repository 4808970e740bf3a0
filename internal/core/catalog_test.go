package core

import (
	"testing"

	"squery/internal/kv"
)

// specFixture builds a catalog with a live+snapshot operator holding n
// keyed map rows, checkpointed once (ssid 1).
func specFixture(t *testing.T, n int) (*Catalog, *Manager) {
	t.Helper()
	store := newTestStore()
	m := NewManager(store, 2)
	cfg := Config{Live: true, Snapshots: true}
	if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	b := NewBackend("op", 0, store.View(0), cfg)
	for i := 0; i < n; i++ {
		b.Update(i, map[string]any{"val": i, "extra": "x"})
	}
	checkpoint(t, m, b)
	cat := NewCatalog(store)
	if err := cat.RegisterJob(m.Registry(), "op"); err != nil {
		t.Fatal(err)
	}
	return cat, m
}

func scanAllSpec(t *testing.T, ref *TableRef, spec ScanSpec) []TableRow {
	t.Helper()
	var out []TableRow
	for p := 0; p < ref.Partitions(); p++ {
		ref.ScanPartitionSpec(p, spec, func(rows []TableRow) bool {
			if len(rows) > kv.ScanBatch {
				t.Fatalf("chunk of %d rows, more than kv.ScanBatch", len(rows))
			}
			out = append(out, rows...)
			return true
		})
	}
	return out
}

func TestScanPartitionSpecFilterAndProjection(t *testing.T) {
	cat, _ := specFixture(t, 40)
	for _, table := range []string{"op", "snapshot_op"} {
		ref, err := cat.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		ssid, err := ref.ResolveSSID(0)
		if err != nil {
			t.Fatal(err)
		}
		var rows []TableRow
		for _, r := range scanAllSpec(t, ref, ScanSpec{SSID: ssid}) {
			if v, _ := r.Field("val"); v.(int) < 10 {
				rows = append(rows, NarrowRow(r, []string{"val"}))
			}
		}
		if len(rows) != 10 {
			t.Fatalf("%s: filtered scan returned %d rows, want 10", table, len(rows))
		}
		for _, r := range rows {
			if v, ok := r.Field("val"); !ok || v.(int) >= 10 {
				t.Fatalf("%s: filter leaked row val=%v ok=%v", table, v, ok)
			}
			// Projection dropped the other column and the raw object.
			if _, ok := r.Field("extra"); ok {
				t.Fatalf("%s: projected row still resolves dropped column", table)
			}
			if r.Raw != nil {
				t.Fatalf("%s: projected row kept Raw", table)
			}
			// Pseudo-columns survive projection: they live on TableRow.
			if _, ok := r.Field(ColPartitionKey); !ok {
				t.Fatalf("%s: projected row lost partitionKey", table)
			}
		}
	}
}

func TestScanPartitionSpecNilColsShipsAll(t *testing.T) {
	cat, _ := specFixture(t, 8)
	ref, err := cat.Table("op")
	if err != nil {
		t.Fatal(err)
	}
	rows := scanAllSpec(t, ref, ScanSpec{})
	if len(rows) != 8 {
		t.Fatalf("unfiltered scan returned %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if _, ok := r.Field("extra"); !ok {
			t.Fatal("an unnarrowed scan dropped a column")
		}
		if r.Raw == nil {
			t.Fatal("an unnarrowed scan dropped Raw")
		}
	}
}

func TestScanPartitionSpecDoneCancels(t *testing.T) {
	cat, _ := specFixture(t, 200)
	ref, err := cat.Table("op")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	rows := scanAllSpec(t, ref, ScanSpec{Done: done})
	if len(rows) != 0 {
		t.Fatalf("cancelled scan still produced %d rows", len(rows))
	}
}

func TestScanPartitionSpecVirtual(t *testing.T) {
	cat, _ := specFixture(t, 1)
	cat.RegisterVirtual("sys.things", func() []TableRow {
		var out []TableRow
		for i := 0; i < 6; i++ {
			out = append(out, TableRow{Key: i, Value: kv.AsRow(map[string]any{"n": i, "pad": "p"})})
		}
		return out
	})
	ref, err := cat.Table("sys.things")
	if err != nil {
		t.Fatal(err)
	}
	var got []TableRow
	ref.ScanPartitionSpec(0, ScanSpec{}, func(rows []TableRow) bool {
		for _, r := range rows {
			if v, _ := r.Field("n"); v.(int)%2 == 0 {
				got = append(got, NarrowRow(r, []string{"n"}))
			}
		}
		return true
	})
	if len(got) != 3 {
		t.Fatalf("virtual spec scan returned %d rows, want 3", len(got))
	}
	if _, ok := got[0].Field("pad"); ok {
		t.Fatal("virtual projection kept dropped column")
	}
}

type sampleRow struct {
	Zone string
	N    int64
}

// TestSampleReportsSizeAndSchema: one pass answers both of the planner's
// questions, for the whole table or one partition — and a snapshot chain
// that holds nothing but tombstones is never the sampled row, however many
// of them surround the one live key.
func TestSampleReportsSizeAndSchema(t *testing.T) {
	store := newTestStore()
	m := NewManager(store, 2)
	cfg := Config{Live: true, Snapshots: true}
	if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	b := NewBackend("op", 0, store.View(0), cfg)
	for i := 0; i < 64; i++ {
		b.Update(i, sampleRow{Zone: "z", N: int64(i)})
	}
	checkpoint(t, m, b)
	for i := 1; i < 64; i++ {
		b.Delete(i)
	}
	checkpoint(t, m, b)
	cat := NewCatalog(store)
	if err := cat.RegisterJob(m.Registry(), "op"); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"op", "snapshot_op"} {
		ref, err := cat.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ { // map iteration order is random: sample repeatedly
			rows, schema, ok := ref.Sample(-1)
			if !ok || schema == nil {
				t.Fatalf("%s: Sample = %d rows, schema %v, ok %v; want the struct's schema", table, rows, schema, ok)
			}
			if _, has := schema.FieldIndex("zone"); !has {
				t.Fatalf("%s: sampled schema lacks the zone column", table)
			}
		}
		p, _ := ref.PartitionOf(0)
		if rows, schema, ok := ref.Sample(p); !ok || schema == nil || rows < 1 {
			t.Fatalf("%s: Sample(partition of key 0) = %d, %v, %v", table, rows, schema, ok)
		}
	}
	// Map rows and provider-backed tables report no schema.
	cat2, _ := specFixture(t, 4)
	ref, _ := cat2.Table("op")
	if rows, schema, ok := ref.Sample(-1); !ok || schema != nil || rows != 4 {
		t.Fatalf("map rows: Sample = %d, %v, %v; want 4 rows and no schema", rows, schema, ok)
	}
	cat2.RegisterVirtual("sys.things", func() []TableRow { return nil })
	vref, _ := cat2.Table("sys.things")
	if _, _, ok := vref.Sample(-1); ok {
		t.Fatal("virtual table reported statistics")
	}
}
