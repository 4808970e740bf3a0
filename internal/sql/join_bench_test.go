package sql

import (
	"testing"
	"time"
)

var joinKeyInputs = []any{
	"order-12345", int64(987654321), 52.52, true, int(7),
	time.Unix(1700000000, 0), "zone-north",
}

func BenchmarkJoinKeyTyped(b *testing.B) {
	b.ReportAllocs()
	m := make(map[joinKey]int, len(joinKeyInputs))
	for i := 0; i < b.N; i++ {
		v := joinKeyInputs[i%len(joinKeyInputs)]
		m[makeJoinKey(v)]++
	}
}

// TestJoinKeyEqualityClasses pins the equality semantics the typed key
// must preserve from the string form: the int family coalesces, floats
// do NOT coalesce with ints, and distinct values stay distinct.
func TestJoinKeyEqualityClasses(t *testing.T) {
	if makeJoinKey(int(5)) != makeJoinKey(int64(5)) {
		t.Error("int and int64 of same value must share a key")
	}
	if makeJoinKey(int64(5)) == makeJoinKey(float64(5)) {
		t.Error("int 5 and float 5.0 must NOT share a key (partitioner semantics)")
	}
	if makeJoinKey("5") == makeJoinKey(int64(5)) {
		t.Error("string \"5\" and int 5 must not collide")
	}
	if makeJoinKey(nil) != makeJoinKey(nil) {
		t.Error("nil key must be stable")
	}
	ts := time.Unix(42, 0)
	if makeJoinKey(ts) != makeJoinKey(ts) {
		t.Error("time key must be stable")
	}
}

// TestGroupKeyEncodingIsSelfDelimiting pins the composite GROUP BY
// encoding: adjacent string values must not collide across boundaries.
func TestGroupKeyEncodingIsSelfDelimiting(t *testing.T) {
	a := appendGroupKey(appendGroupKey(nil, "ab"), "c")
	b := appendGroupKey(appendGroupKey(nil, "a"), "bc")
	if string(a) == string(b) {
		t.Fatalf("(\"ab\",\"c\") and (\"a\",\"bc\") collide: %q", a)
	}
}

// BenchmarkCoPartitionedJoin measures the end-to-end co-partitioned join
// the typed key sits under.
func BenchmarkCoPartitionedJoin(b *testing.B) {
	f := newFixture(b, 512, liveSnapCfg())
	stmt, err := Parse(`SELECT COUNT(*) FROM orderinfo JOIN orderstate USING(partitionKey)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ex.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalHashJoin measures the general ON-clause hash join path.
func BenchmarkGlobalHashJoin(b *testing.B) {
	f := newFixture(b, 512, liveSnapCfg())
	stmt, err := Parse(`SELECT COUNT(*) FROM orderinfo a JOIN orderstate b ON a.partitionKey = b.partitionKey`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ex.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
}
