package squery

// Overhead of the always-on metrics layer, measured at the two places it
// touches per-record work: SQL reads (kv get counters, per-partition scan
// instruments, query event log) and stream ingest (operator record
// counters, state-update latency histograms, kv set counters). Each
// benchmark runs the identical workload with the registry enabled and
// with Config.DisableMetrics, which nils every instrument at
// construction time. EXPERIMENTS.md records the measured delta against
// the 5% budget. Run with:
//
//	go test -bench BenchmarkMetricsOverhead -benchtime 2s

import (
	"testing"
	"time"

	"squery/internal/qcommerce"
)

var metricsModes = []struct {
	name    string
	disable bool
}{
	{"on", false},
	{"off", true},
}

func overheadEngine(b *testing.B, disable bool, rate float64) (*Engine, *Job) {
	b.Helper()
	eng := New(Config{Nodes: 3, DisableMetrics: disable})
	dag := qcommerce.DAG(qcommerce.Config{
		Orders:              2_000,
		Rate:                rate,
		SourceParallelism:   3,
		OperatorParallelism: 3,
	}, SinkVertex("sink", 3, func(Record) {}))
	job, err := eng.SubmitJob(dag, JobSpec{
		Name:  "overhead",
		State: StateConfig{Live: true, Snapshots: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.SourceRecords() < 6_000 {
		if time.Now().After(deadline) {
			b.Fatal("overhead engine did not warm up")
		}
		time.Sleep(time.Millisecond)
	}
	if err := job.CheckpointNow(); err != nil {
		b.Fatal(err)
	}
	return eng, job
}

// BenchmarkMetricsOverheadQuery: one op is one pruned point query through
// the full SQL path (parse, prune, kv get, project, query event log).
func BenchmarkMetricsOverheadQuery(b *testing.B) {
	for _, m := range metricsModes {
		b.Run(m.name, func(b *testing.B) {
			eng, job := overheadEngine(b, m.disable, 500)
			defer job.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(`SELECT orderState FROM orderstate WHERE partitionKey = 'order-17'`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetricsOverheadScan: one op is one full-table aggregate scan —
// the path that touches every partition's instruments.
func BenchmarkMetricsOverheadScan(b *testing.B) {
	for _, m := range metricsModes {
		b.Run(m.name, func(b *testing.B) {
			eng, job := overheadEngine(b, m.disable, 500)
			defer job.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(`SELECT COUNT(*) FROM "snapshot_orderstate"`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetricsOverheadIngest: one op is a fixed unthrottled run of
// the Q-commerce pipeline; the custom events/s metric is the comparison
// axis (per-record instrument cost shows up as lost throughput).
func BenchmarkMetricsOverheadIngest(b *testing.B) {
	for _, m := range metricsModes {
		b.Run(m.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				eng := New(Config{Nodes: 3, DisableMetrics: m.disable})
				dag := qcommerce.DAG(qcommerce.Config{
					Orders:              10_000,
					Rate:                0, // unthrottled
					SourceParallelism:   3,
					OperatorParallelism: 3,
				}, SinkVertex("sink", 3, func(Record) {}))
				job, err := eng.SubmitJob(dag, JobSpec{
					Name:  "overhead",
					State: StateConfig{Live: true, Snapshots: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				before := job.SourceRecords()
				time.Sleep(500 * time.Millisecond)
				emitted := job.SourceRecords() - before
				total += float64(emitted) / time.Since(start).Seconds()
				job.Stop()
				eng.Close()
			}
			b.ReportMetric(total/float64(b.N), "events/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkCapture: one op is one metric-history capture of a bare
// three-node engine's registry, the work the history ticker does every
// HistoryInterval.
func BenchmarkCapture(b *testing.B) {
	eng := New(Config{Nodes: 3, DisableHistory: true})
	defer eng.Close()
	reg := eng.Metrics()
	at := time.Unix(1_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Capture(at.Add(time.Duration(i) * time.Second))
	}
}

// BenchmarkPrometheusText: one op is one /metrics exposition of a bare
// three-node engine's registry.
func BenchmarkPrometheusText(b *testing.B) {
	eng := New(Config{Nodes: 3, DisableHistory: true})
	defer eng.Close()
	reg := eng.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(reg.PrometheusText())))
	}
}

// BenchmarkDump: one op is one plain-text dump (the -metrics flags) of a
// bare three-node engine's registry.
func BenchmarkDump(b *testing.B) {
	eng := New(Config{Nodes: 3, DisableHistory: true})
	defer eng.Close()
	reg := eng.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(reg.Dump())))
	}
}
