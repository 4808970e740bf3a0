package sql

import (
	"fmt"
	"testing"
)

// BenchmarkReadPath times the two read classes that dominate the
// benchmark's query mix, over 50 K orders on 3 nodes: the grouped
// aggregate over a full scan of live orderinfo, and Query 1, a filtered
// co-partitioned join of the two snapshot tables. The partitions are the
// engine's 271 (about 185 rows each, under one chunk) and 16 (about
// 3 100 rows each, a dozen chunks), so that both a partition read that
// fits one chunk and one that spans many are measured.
func BenchmarkReadPath(b *testing.B) {
	for _, parts := range []int{271, 16} {
		f := newFixtureOn(b, 50_000, parts, liveSnapCfg())
		for _, q := range []struct{ name, sql string }{
			{"scan", `SELECT COUNT(*), deliveryZone FROM orderinfo WHERE vendorCategory = 'pharmacy' GROUP BY deliveryZone`},
			{"join", `SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE (orderState='VENDOR_ACCEPTED' AND lateTimestamp<LOCALTIMESTAMP) GROUP BY deliveryZone`},
		} {
			stmt, err := Parse(q.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/parts=%d", q.name, parts), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := f.ex.Exec(stmt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
