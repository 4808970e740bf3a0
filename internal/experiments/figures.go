package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/dataflow"
	"squery/internal/metrics"
	"squery/internal/nexmark"
	"squery/internal/partition"
	"squery/internal/qcommerce"
	"squery/internal/sql"
	"squery/internal/tspoon"
)

// Fig8 — source→sink latency distribution of the four state
// configurations on NEXMark query 6, 3 nodes (paper: Figure 8). Expected
// shape: live state costs the most (every update crosses to the KV
// store); the snapshot-only configuration tracks plain Jet closely.
func Fig8(o Options) []Series {
	rate := fig89Rate(o)
	configs := []struct {
		label string
		state core.Config
	}{
		// Every configuration checkpoints (Jet always does); they
		// differ in which *queryable* representations S-QUERY
		// maintains: both, live only (snapshots stay opaque blobs, as
		// in plain Jet), snapshots only, or neither.
		{"S-Query live+snap", core.Config{Live: true, Snapshots: true}},
		{"S-Query live", core.Config{Live: true, JetBlob: true}},
		{"S-Query snap", core.Config{Snapshots: true}},
		{"Jet", core.Config{JetBlob: true}},
	}
	out := make([]Series, 0, len(configs))
	for _, c := range configs {
		run := runNexmark(o, 3, c.state, rate, nil)
		out = append(out, Series{Label: c.label, Summary: run.Latency})
	}
	return out
}

// fig89Rate is the base offered load per source instance for the latency
// experiments: high enough to stress the pipeline, low enough that the
// 1× configuration is comfortably below saturation, with 9× approaching
// it — mirroring the paper's 1M/5M/9M events/s ladder relative to its
// hardware. (This repository's simulated cluster runs inside one process;
// its capacity is a few hundred thousand events/s on a small host.)
func fig89Rate(o Options) float64 {
	if o.Quick {
		return 8_000
	}
	return 15_000
}

// Fig9 — snapshot configuration vs Jet at 1×/5×/9× offered load
// (paper: 1M/5M/9M events/s, Figure 9). Expected shape: nearly identical
// distributions at low load; a single-digit-millisecond gap confined to
// the extreme percentiles at the highest load.
func Fig9(o Options) []Series {
	base := fig89Rate(o)
	var out []Series
	for _, mult := range []float64{1, 5, 9} {
		for _, c := range []struct {
			label string
			state core.Config
		}{
			{"S-Query", core.Config{Snapshots: true}},
			{"Jet", core.Config{JetBlob: true}},
		} {
			run := runNexmark(o, 3, c.state, base*mult, nil)
			out = append(out, Series{
				Label:   fmt.Sprintf("%s %.0fx", c.label, mult),
				Summary: run.Latency,
			})
		}
	}
	return out
}

// Fig10 — snapshot 2PC latency, S-QUERY vs Jet, for 1K/10K/100K unique
// keys on the Q-commerce workload, 7 nodes (Figure 10). Expected shape:
// indistinguishable at 1K keys, a small constant gap at 10K, a larger
// (but bounded) gap at 100K — the cost of writing per-key queryable
// entries instead of one blob.
func Fig10(o Options) []Series {
	var out []Series
	for _, keys := range o.keySweeps() {
		for _, c := range []struct {
			label string
			state core.Config
		}{
			{"S-Query", core.Config{Snapshots: true}},
			{"Jet", core.Config{JetBlob: true}},
		} {
			run := runQCommerce(o, 7, keys, c.state, 0, "")
			out = append(out, Series{
				Label:   fmt.Sprintf("%s %dk", c.label, keys/1000),
				Summary: run.Total2PC,
			})
		}
	}
	return out
}

// Fig11 — snapshot 2PC latency with vs without two concurrent full-speed
// Query-1 threads (Figure 11). Expected shape: negligible difference at
// small key counts, up to a bounded extra latency at 100K keys.
func Fig11(o Options) []Series {
	var out []Series
	for _, keys := range o.keySweeps() {
		for _, c := range []struct {
			label   string
			threads int
		}{
			{"No Query", 0},
			{"Query", 2},
		} {
			run := runQCommerce(o, 7, keys, core.Config{Snapshots: true}, c.threads, qcommerce.Query1)
			out = append(out, Series{
				Label:   fmt.Sprintf("%s %dk", c.label, keys/1000),
				Summary: run.Total2PC,
			})
		}
	}
	return out
}

// deltaKeys returns the number of keys Fig12/Fig13 sweeps use.
func (o Options) deltaTotalKeys() int {
	if o.Quick {
		return 5_000
	}
	return 50_000
}

// deltaInterval is the checkpoint interval of the delta-ratio experiment:
// long enough that offered_rate × interval covers the whole key set, so a
// nominal 100% delta really dirties ~100% of keys per checkpoint.
func (o Options) deltaInterval() time.Duration {
	if o.Quick {
		return 150 * time.Millisecond
	}
	return time.Second
}

// deltaMeasure gives the delta experiment enough wall time for several
// checkpoints at the longer interval.
func (o Options) deltaMeasure() time.Duration {
	if o.Quick {
		return 700 * time.Millisecond
	}
	return 6 * time.Second
}

// Fig12 — 2PC latency of incremental snapshots at 1%/10%/100% delta
// ratios vs full snapshots (Figure 12). Expected shape: small deltas are
// much cheaper than full snapshots; at 100% delta the per-key chain
// housekeeping makes incremental comparable to (or more expensive than) a
// full snapshot. The key count and interval are chosen so the offered
// update rate actually touches the whole hot set between checkpoints —
// otherwise the nominal delta ratio would overstate the real one.
func Fig12(o Options) []Series {
	keys := o.deltaTotalKeys()
	var out []Series
	for _, delta := range []float64{0.01, 0.10, 1.00} {
		run := runDeltaWorkload(o, keys, delta, core.Config{Snapshots: true, Incremental: true})
		out = append(out, Series{
			Label:     fmt.Sprintf("%.0f%% delta", delta*100),
			Summary:   run.Total2PC,
			DeltaKeys: run.DeltaKeys,
		})
	}
	full := runDeltaWorkload(o, keys, 1.0, core.Config{Snapshots: true})
	out = append(out, Series{Label: "Full snapshot", Summary: full.Total2PC, DeltaKeys: full.DeltaKeys})
	return out
}

// runDeltaWorkload drives a synthetic stateful job over `keys` keys where,
// after an initial full population, only the first delta*keys keys keep
// being updated — giving precise control over the per-checkpoint change
// ratio (the knob of Figures 12 and 13).
func runDeltaWorkload(o Options, keys int, delta float64, state core.Config) qcommerceRun {
	nodes := 7
	clu := cluster.New(cluster.Config{Nodes: nodes})
	hot := int64(float64(keys) * delta)
	if hot < 1 {
		hot = 1
	}
	total := int64(keys)
	par := nodes
	src := dataflow.GeneratorSource("updates", par, 25_000, func(instance int, seq int64) (dataflow.Record, bool) {
		g := seq*int64(par) + int64(instance)
		var key int64
		if g < total {
			key = g // initial population covers every key
		} else {
			key = g % hot // steady state touches only the hot set
		}
		return dataflow.Record{Key: key, Value: g}, true
	})
	dag := dataflow.NewDAG().
		AddVertex(src).
		AddVertex(dataflow.StatefulMapVertex("deltastate", nodes*2,
			func(st any, rec dataflow.Record) (any, []dataflow.Record) {
				return rec.Value, []dataflow.Record{rec}
			})).
		AddVertex(dataflow.LatencySinkVertex("sink", nodes, metrics.NewHistogram())).
		Connect("updates", "deltastate", dataflow.EdgePartitioned).
		Connect("deltastate", "sink", dataflow.EdgePartitioned)
	// The registry is here for its "checkpoints" event log: each committed
	// round records how many snapshot entries its drains wrote.
	reg := metrics.NewRegistry()
	job, err := dataflow.Run(dag, dataflow.Config{
		Name:             "delta",
		Cluster:          clu,
		State:            state,
		SnapshotInterval: o.deltaInterval(),
		Metrics:          reg,
	})
	if err != nil {
		panic(err)
	}
	defer job.Stop()

	deadline := time.Now().Add(60 * time.Second)
	for job.SourceMeter().Count() < uint64(total) || job.Manager().Registry().LatestCommitted() < 2 {
		if time.Now().After(deadline) {
			panic("experiments: delta workload did not warm up")
		}
		time.Sleep(time.Millisecond)
	}
	job.SnapshotPhase1().Reset()
	job.SnapshotTotal().Reset()
	c0 := job.Manager().Registry().LatestCommitted()
	time.Sleep(o.deltaMeasure())
	// Hold the window open until whole checkpoints landed in it: under
	// heavy instrumentation (the race detector) a commit can outlast the
	// nominal measure time, which would leave the histograms empty.
	deadline = time.Now().Add(60 * time.Second)
	for job.Manager().Registry().LatestCommitted() < c0+2 {
		if time.Now().After(deadline) {
			panic("experiments: delta workload measured no checkpoints")
		}
		time.Sleep(5 * time.Millisecond)
	}
	deltaKeys := 0
	for _, ev := range reg.Log("checkpoints", 0).Events() {
		if ev.Fields["outcome"] == "committed" && ev.Fields["ssid"].(int64) > c0 {
			deltaKeys = ev.Fields["deltaKeys"].(int)
		}
	}
	return qcommerceRun{
		Phase1:    job.SnapshotPhase1().Snapshot(),
		Total2PC:  job.SnapshotTotal().Snapshot(),
		DeltaKeys: deltaKeys,
		Events:    job.SourceMeter().Count(),
	}
}

// Fig13 — Query-1 execution latency on full vs incremental snapshots for
// the key sweep (Figure 13). Expected shape: identical at small key
// counts; incremental pays a multiple at the largest count because the
// differential read walks version chains.
func Fig13(o Options) []Series {
	var out []Series
	for _, keys := range o.keySweeps() {
		for _, c := range []struct {
			label string
			state core.Config
		}{
			{"Incremental", core.Config{Snapshots: true, Incremental: true}},
			{"Full", core.Config{Snapshots: true}},
		} {
			run := runQCommerce(o, 7, keys, c.state, 1, qcommerce.Query1)
			out = append(out, Series{
				Label:   fmt.Sprintf("%s %dk", c.label, keys/1000),
				Summary: run.Query,
			})
		}
	}
	return out
}

// Fig14Row is one point of the direct-object throughput comparison.
type Fig14Row struct {
	System       string
	KeysSelected int
	QueriesPerS  float64
}

// Fig14 — direct-object query throughput vs number of keys selected
// (1/10/100/1000 of 100K rider locations), S-QUERY vs the TSpoon baseline
// (Figure 14). Expected shape: both follow a power law; S-QUERY leads by
// ~2× at 1 key and the two converge as the per-key work dominates.
func Fig14(o Options) []Fig14Row {
	const totalKeys = 100_000
	keys := totalKeys
	if o.Quick {
		keys = 20_000
	}
	threads := 16
	dur := o.measure()

	// S-QUERY side: rider-location state in the KV store.
	clu := cluster.New(cluster.Config{Nodes: 3})
	view := clu.NodeView(0)
	for i := 0; i < keys; i++ {
		view.Put(core.LiveMapName("riderlocation"), qcommerce.RiderKey(int64(i)), qcommerce.RiderLocation{
			Lat: 52.1, Lon: 4.4, UpdatedAt: time.Now(),
		})
	}
	// TSpoon side: the same state behind read-only transactions.
	tsp := tspoon.New(clu.Partitioner(), 3)
	for i := 0; i < keys; i++ {
		tsp.Apply(qcommerce.RiderKey(int64(i)), qcommerce.RiderLocation{
			Lat: 52.1, Lon: 4.4, UpdatedAt: time.Now(),
		})
	}

	var out []Fig14Row
	client := clu.ClientView()
	for _, sel := range []int{1, 10, 100, 1000} {
		keySets := selectionKeys(keys, sel)
		sq := measureQPS(threads, dur, func(worker, i int) {
			ks := keySets[(worker+i)%len(keySets)]
			client.GetAll(core.LiveMapName("riderlocation"), ks)
		})
		ts := measureQPS(threads, dur, func(worker, i int) {
			ks := keySets[(worker+i)%len(keySets)]
			tsp.Query(ks)
		})
		out = append(out,
			Fig14Row{System: "S-Query", KeysSelected: sel, QueriesPerS: sq},
			Fig14Row{System: "TSpoon", KeysSelected: sel, QueriesPerS: ts},
		)
	}
	return out
}

// selectionKeys builds a few rotating key sets of the given size.
func selectionKeys(total, sel int) [][]partition.Key {
	const sets = 8
	out := make([][]partition.Key, sets)
	for s := 0; s < sets; s++ {
		ks := make([]partition.Key, sel)
		for i := 0; i < sel; i++ {
			ks[i] = qcommerce.RiderKey(int64((s*7919 + i*104729) % total))
		}
		out[s] = ks
	}
	return out
}

// measureQPS runs fn from `threads` goroutines for dur and returns
// queries/second.
func measureQPS(threads int, dur time.Duration, fn func(worker, i int)) float64 {
	var count atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fn(worker, i)
				count.Add(1)
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	return float64(count.Load()) / time.Since(start).Seconds()
}

// Fig15Row is one point of the scalability experiment.
type Fig15Row struct {
	Nodes          int
	DOP            int
	Interval       time.Duration
	MaxThroughput  float64 // events/s
	NormalizedKEPS float64 // k events/s per DOP
}

// Fig15 — maximum sustainable throughput vs degrees of parallelism for
// 0.5×/1×/2× snapshot intervals, with 10 SQL queries/s running against
// the job's state (Figure 15). Expected shape: throughput scales linearly
// with DOP; shorter snapshot intervals shave a few percent off.
func Fig15(o Options) []Fig15Row {
	nodesSweep := []int{3, 5, 7}
	if o.Quick {
		nodesSweep = []int{3, 5}
	}
	base := o.interval()
	var out []Fig15Row
	for _, nodes := range nodesSweep {
		for _, mult := range []float64{0.5, 1, 2} {
			interval := time.Duration(float64(base) * mult)
			run := runScalability(o, nodes, interval)
			dop := nodes * 4
			out = append(out, Fig15Row{
				Nodes:          nodes,
				DOP:            dop,
				Interval:       interval,
				MaxThroughput:  run,
				NormalizedKEPS: run / float64(dop) / 1000,
			})
		}
	}
	return out
}

// runScalability measures achieved (sustainable) throughput of NEXMark q6
// running unthrottled with 10 snapshot-state SQL queries per second.
//
// Caveat (also in EXPERIMENTS.md): the simulated nodes share the host's
// real cores, so wall-clock throughput only scales with DOP while DOP ≤
// GOMAXPROCS. On smaller hosts the measurable effect that remains is the
// paper's secondary finding — shorter snapshot intervals cost a few
// percent of sustainable throughput.
func runScalability(o Options, nodes int, interval time.Duration) float64 {
	clu := cluster.New(cluster.Config{Nodes: nodes})
	hist := metrics.NewHistogram()
	cfg := nexmark.Config{
		Sellers:             10_000,
		SourceParallelism:   nodes,
		OperatorParallelism: nodes * 3,
	}
	if o.Quick {
		cfg.Sellers = 1_000
	}
	dag := nexmark.Query6DAG(cfg, hist)
	job, err := dataflow.Run(dag, dataflow.Config{
		Name:             "scalability",
		Cluster:          clu,
		State:            core.Config{Snapshots: true},
		SnapshotInterval: interval,
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

	// 10 queries/s against the job's snapshot state.
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		seller := int64(0)
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if job.Manager().Registry().LatestCommitted() == 0 {
					continue
				}
				seller++
				// Errors only mean the snapshot raced a prune; the
				// load matters, not the result.
				_, _ = ex.Query(nexmark.SellerPricesQuery(seller % cfg.Sellers))
			}
		}
	}()

	time.Sleep(o.warmup())
	meter := job.SourceMeter()
	meter.Reset()
	time.Sleep(o.measure())
	rate := meter.Rate()
	close(stop)
	qwg.Wait()
	return rate
}
