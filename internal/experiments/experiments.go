// Package experiments regenerates every table and figure of the paper's
// evaluation (§IX): each Fig* function reproduces one experiment at a
// laptop-friendly scale and returns the same series the paper plots. The
// cmd/squery-bench binary and the root-level Go benchmarks are thin
// wrappers around this package; EXPERIMENTS.md records paper-reported vs
// measured numbers.
//
// Absolute numbers differ from the paper's 7-node AWS cluster by design —
// the substrate here is a simulated cluster in one process — but the
// comparisons the paper draws (which configuration wins, by roughly what
// factor, and where behaviour crosses over) are reproduced.
package experiments

import (
	"fmt"

	"strings"
	"time"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/dataflow"
	"squery/internal/metrics"
	"squery/internal/nexmark"
	"squery/internal/qcommerce"
	"squery/internal/sql"
)

// Options scales experiments. The zero value runs the full (still
// laptop-sized) configuration; Quick shrinks durations and key counts for
// use inside `go test -bench`.
type Options struct {
	Quick bool
}

func (o Options) measure() time.Duration {
	if o.Quick {
		return 800 * time.Millisecond
	}
	return 3 * time.Second
}

func (o Options) warmup() time.Duration {
	if o.Quick {
		return 200 * time.Millisecond
	}
	return time.Second
}

// interval scales the paper's 1-second checkpoint interval to the
// experiment duration used here.
func (o Options) interval() time.Duration {
	if o.Quick {
		return 50 * time.Millisecond
	}
	return 200 * time.Millisecond
}

func (o Options) keySweeps() []int {
	if o.Quick {
		return []int{1_000, 5_000}
	}
	return []int{1_000, 10_000, 100_000}
}

// Series is one labelled latency distribution of a figure.
type Series struct {
	Label   string
	Summary metrics.Summary
	// DeltaKeys is the snapshot entries one steady-state checkpoint wrote
	// (Fig12 only) — the count the latency follows.
	DeltaKeys int
}

// Table renders series as the aligned text table squery-bench prints.
func Table(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	qs := metrics.PaperPercentiles
	fmt.Fprintf(&b, "%-28s %10s", "series", "count")
	for _, q := range qs {
		fmt.Fprintf(&b, " %11s", fmt.Sprintf("p%g", q*100))
	}
	b.WriteByte('\n')
	for _, s := range series {
		fmt.Fprintf(&b, "%-28s %10d", s.Label, s.Summary.Count)
		for _, q := range qs {
			fmt.Fprintf(&b, " %11s", roundDur(s.Summary.Quantiles[q]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	}
}

// nexmarkRun holds the artifacts of one NEXMark job execution.
type nexmarkRun struct {
	Latency  metrics.Summary
	Phase1   metrics.Summary
	Total2PC metrics.Summary
	Events   uint64
	Rate     float64
}

// runNexmark executes NEXMark query 6 for warmup+measure under the given
// state configuration and offered per-instance rate (0 = unthrottled).
func runNexmark(o Options, nodes int, state core.Config, rate float64, queryLoad func(*cluster.Cluster, *dataflow.Job) func()) nexmarkRun {
	clu := cluster.New(cluster.Config{Nodes: nodes})
	hist := metrics.NewHistogram()
	cfg := nexmark.Config{
		Sellers:             10_000,
		Rate:                rate,
		SourceParallelism:   nodes,
		OperatorParallelism: nodes * 2,
	}
	if o.Quick {
		cfg.Sellers = 1_000
	}
	dag := nexmark.Query6DAG(cfg, hist)
	job, err := dataflow.Run(dag, dataflow.Config{
		Name:             "nexmark-q6",
		Cluster:          clu,
		State:            state,
		SnapshotInterval: o.interval(),
	})
	if err != nil {
		panic(err)
	}
	defer job.Stop()

	var stopLoad func()
	if queryLoad != nil {
		stopLoad = queryLoad(clu, job)
	}

	time.Sleep(o.warmup())
	hist.Reset()
	job.SnapshotPhase1().Reset()
	job.SnapshotTotal().Reset()
	meter := job.SourceMeter()
	meter.Reset()
	time.Sleep(o.measure())

	run := nexmarkRun{
		Latency:  hist.Snapshot(),
		Phase1:   job.SnapshotPhase1().Snapshot(),
		Total2PC: job.SnapshotTotal().Snapshot(),
		Events:   meter.Count(),
		Rate:     meter.Rate(),
	}
	if stopLoad != nil {
		stopLoad()
	}
	return run
}

// qcommerceRun holds the artifacts of one Q-commerce job execution.
type qcommerceRun struct {
	Phase1   metrics.Summary
	Total2PC metrics.Summary
	// DeltaKeys is the snapshot entries the last committed checkpoint of
	// the window wrote, as the coordinator summed them from the drain
	// acknowledgements (runDeltaWorkload only).
	DeltaKeys int
	Query     metrics.Summary
	Events    uint64
}

// runQCommerce executes the Delivery Hero workload with `keys` unique
// orders. When queryThreads > 0, that many goroutines issue `query`
// back-to-back against the snapshot state during the measurement window
// (the paper's two full-speed query threads, §IX.A); their latency lands
// in the returned Query summary.
func runQCommerce(o Options, nodes, keys int, state core.Config, queryThreads int, query string) qcommerceRun {
	clu := cluster.New(cluster.Config{Nodes: nodes})
	cfg := qcommerce.Config{
		Orders:              int64(keys),
		Rate:                8_000, // below saturation: 2PC latency, not queueing
		SourceParallelism:   nodes,
		OperatorParallelism: nodes * 2,
	}
	hist := metrics.NewHistogram()
	dag := qcommerce.DAG(cfg, dataflow.LatencySinkVertex("sink", nodes*2, hist))
	job, err := dataflow.Run(dag, dataflow.Config{
		Name:             "qcommerce",
		Cluster:          clu,
		State:            state,
		SnapshotInterval: o.interval(),
	})
	if err != nil {
		panic(err)
	}
	defer job.Stop()

	cat := core.NewCatalog(clu.Store())
	if err := cat.RegisterJob(job.Manager().Registry(), job.StatefulOperators()...); err != nil {
		panic(err)
	}
	ex := sql.NewExecutor(cat, nodes)

	// Wait until state is populated and the first snapshot committed.
	deadline := time.Now().Add(30 * time.Second)
	for job.Manager().Registry().LatestCommitted() == 0 ||
		job.SourceMeter().Count() < uint64(keys) {
		if time.Now().After(deadline) {
			panic("experiments: workload did not warm up")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(o.warmup())

	// Larger key counts need more wall time per checkpoint for the 2PC
	// histograms to collect a meaningful sample.
	measure := o.measure()
	if keys >= 50_000 {
		measure *= 3
	}

	job.SnapshotPhase1().Reset()
	job.SnapshotTotal().Reset()
	qHist := metrics.NewHistogram()
	stop := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < queryThreads; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sw := metrics.StartStopwatch()
				if _, err := ex.Query(query); err != nil {
					panic(fmt.Sprintf("experiments: query load failed: %v", err))
				}
				qHist.Record(sw.Elapsed())
			}
		}()
	}
	time.Sleep(measure)
	// On a loaded host (notably under the race detector) a single 2PC
	// round can outlast the whole measure window; keep measuring until at
	// least one sample lands so the histograms are never empty.
	sampleDeadline := time.Now().Add(30 * time.Second)
	for job.SnapshotTotal().Count() == 0 && time.Now().Before(sampleDeadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	for i := 0; i < queryThreads; i++ {
		<-done
	}
	return qcommerceRun{
		Phase1:   job.SnapshotPhase1().Snapshot(),
		Total2PC: job.SnapshotTotal().Snapshot(),
		Query:    qHist.Snapshot(),
		Events:   job.SourceMeter().Count(),
	}
}
