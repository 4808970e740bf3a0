// Command squery-bench regenerates the tables and figures of the paper's
// evaluation section (§IX). Each experiment prints the series the paper
// plots; EXPERIMENTS.md records paper-reported vs measured values.
//
// Usage:
//
//	squery-bench -exp fig8        # one experiment
//	squery-bench -exp all         # everything (several minutes)
//	squery-bench -exp fig10 -quick
//
// Experiments: fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 queries
// pushdown obs ckpt-scale index subscribe all.
//
// -metrics additionally runs a short fully-instrumented Q-commerce job on
// the engine and prints its plain-text metrics dump — every counter,
// latency histogram and event log the sys.* tables expose.
//
// -serve-obs ADDR keeps a background instrumented Q-commerce job running
// for the life of the process and serves the HTTP observability plane
// (/metrics, /tracez, /healthz, /readyz, /debug/pprof) over it, so
// experiments can be profiled with `go tool pprof` while they run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"squery"
	"squery/internal/experiments"
	"squery/internal/obshttp"
	"squery/internal/qcommerce"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig8..fig15, queries, pushdown, obs, all")
	quick := flag.Bool("quick", false, "shrink durations and key counts")
	dumpMetrics := flag.Bool("metrics", false, "run an instrumented engine workload and print its metrics dump")
	serveObs := flag.String("serve-obs", "", "serve the HTTP observability plane on this address (e.g. 127.0.0.1:8080)")
	flag.Parse()

	if *serveObs != "" {
		stop, err := serveObsPlane(*serveObs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve-obs:", err)
			os.Exit(1)
		}
		defer stop()
	}

	o := experiments.Options{Quick: *quick}
	runners := map[string]func(experiments.Options){
		"fig8":       runFig8,
		"fig9":       runFig9,
		"fig10":      runFig10,
		"fig11":      runFig11,
		"fig12":      runFig12,
		"fig13":      runFig13,
		"fig14":      runFig14,
		"fig15":      runFig15,
		"queries":    runQueries,
		"pushdown":   runPushdown,
		"obs":        runObs,
		"ckpt-scale": runCkptScale,
		"index":      runIndex,
		"subscribe":  runSubscribe,
	}
	order := []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "queries", "pushdown", "obs", "ckpt-scale", "index", "subscribe"}

	switch *exp {
	case "all":
		for _, name := range order {
			run(name, runners[name], o)
		}
	default:
		r, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of %v or all\n", *exp, order)
			os.Exit(2)
		}
		run(*exp, r, o)
	}

	if *dumpMetrics {
		run("metrics", runMetricsDump, o)
	}
}

// serveObsPlane boots a small always-on instrumented Q-commerce job and
// serves the observability plane over it; the returned func tears both
// down.
func serveObsPlane(addr string) (func(), error) {
	eng := squery.New(squery.Config{Nodes: 3})
	dag := qcommerce.DAG(qcommerce.Config{
		Orders:              5_000,
		Rate:                5_000,
		SourceParallelism:   3,
		OperatorParallelism: 6,
	}, squery.SinkVertex("sink", 3, func(squery.Record) {}))
	job, err := eng.SubmitJob(dag, squery.JobSpec{
		Name:             "obs",
		State:            squery.StateConfig{Live: true, Snapshots: true},
		SnapshotInterval: 250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	srv, bound, err := obshttp.Serve(addr, obshttp.Options{
		Metrics: eng.Metrics(),
		Tracer:  eng.Tracer(),
		Health:  eng.Health,
		Ready:   eng.Ready,
	})
	if err != nil {
		job.Stop()
		return nil, err
	}
	fmt.Printf("observability plane on http://%s\n\n", bound)
	return func() { srv.Close(); job.Stop() }, nil
}

// runMetricsDump drives a short instrumented Q-commerce job through a
// checkpoint and prints the engine's full plain-text metrics dump.
func runMetricsDump(o experiments.Options) {
	eng := squery.New(squery.Config{Nodes: 3})
	runFor := 2 * time.Second
	if o.Quick {
		runFor = 500 * time.Millisecond
	}
	dag := qcommerce.DAG(qcommerce.Config{
		Orders:              10_000,
		Rate:                50_000,
		SourceParallelism:   3,
		OperatorParallelism: 6,
	}, squery.SinkVertex("sink", 3, func(squery.Record) {}))
	job, err := eng.SubmitJob(dag, squery.JobSpec{
		Name:             "qcommerce",
		State:            squery.StateConfig{Live: true, Snapshots: true},
		SnapshotInterval: 100 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "submit:", err)
		os.Exit(1)
	}
	time.Sleep(runFor)
	job.Stop()
	fmt.Print(eng.MetricsDump())
}

func run(name string, fn func(experiments.Options), o experiments.Options) {
	fmt.Printf("=== %s ===\n", name)
	start := time.Now()
	fn(o)
	fmt.Printf("(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
}

func runFig8(o experiments.Options) {
	fmt.Println(experiments.Table(
		"Figure 8 — source→sink latency by state configuration (NEXMark q6, 3 nodes)",
		experiments.Fig8(o)))
}

func runFig9(o experiments.Options) {
	fmt.Println(experiments.Table(
		"Figure 9 — S-Query (snap) vs Jet at 1x/5x/9x offered load (NEXMark q6, 3 nodes)",
		experiments.Fig9(o)))
}

func runFig10(o experiments.Options) {
	fmt.Println(experiments.Table(
		"Figure 10 — snapshot 2PC latency, S-Query vs Jet (Q-commerce, 7 nodes)",
		experiments.Fig10(o)))
}

func runFig11(o experiments.Options) {
	fmt.Println(experiments.Table(
		"Figure 11 — snapshot 2PC latency with vs without concurrent Query-1 threads",
		experiments.Fig11(o)))
}

func runFig12(o experiments.Options) {
	fmt.Println(experiments.Table(
		"Figure 12 — incremental vs full snapshot 2PC latency by delta ratio (50K keys)",
		experiments.Fig12(o)))
}

func runFig13(o experiments.Options) {
	fmt.Println(experiments.Table(
		"Figure 13 — Query-1 latency on incremental vs full snapshots",
		experiments.Fig13(o)))
}

func runFig14(o experiments.Options) {
	fmt.Println("Figure 14 — direct-object query throughput vs keys selected (100K rider locations)")
	fmt.Printf("%-10s %14s %16s\n", "system", "keys selected", "throughput q/s")
	for _, r := range experiments.Fig14(o) {
		fmt.Printf("%-10s %14d %16.0f\n", r.System, r.KeysSelected, r.QueriesPerS)
	}
	fmt.Println()
}

func runFig15(o experiments.Options) {
	fmt.Println("Figure 15 — scalability: max sustainable throughput vs DOP and snapshot interval")
	fmt.Printf("%-6s %-5s %-10s %18s %20s\n", "nodes", "DOP", "interval", "max events/s", "k events/s per DOP")
	for _, r := range experiments.Fig15(o) {
		fmt.Printf("%-6d %-5d %-10s %18.0f %20.1f\n",
			r.Nodes, r.DOP, r.Interval, r.MaxThroughput, r.NormalizedKEPS)
	}
	fmt.Println()
}

func runQueries(o experiments.Options) {
	fmt.Println("Delivery Hero production queries (§VIII) on live Q-commerce snapshot state")
	for _, r := range experiments.PaperQueries(o) {
		fmt.Printf("--- %s (%s, %d rows) ---\n%s\n%s\n",
			r.Name, r.Latency.Round(time.Microsecond), r.Rows, r.Query, r.Result)
	}
}

func runObs(o experiments.Options) {
	fmt.Println(experiments.Table(
		"Tracing overhead — coordinated-omission-safe source→sink latency with tracing off / 1-in-256 / every record",
		experiments.Obs(o)))
}

func runPushdown(o experiments.Options) {
	fmt.Println(experiments.PushdownTable(
		"Scan pushdown — partition fragments (pushdown) vs ship-everything (40K keys, 128 partitions, 3 nodes)",
		experiments.Pushdown(o)))
}

func runIndex(o experiments.Options) {
	fmt.Println(experiments.IndexTable(
		"Secondary indexes — selective reads via index vs full-scan access path, and inline-maintenance write cost (128 partitions, 3 nodes)",
		experiments.Index(o)))
}

func runCkptScale(o experiments.Options) {
	fmt.Println(experiments.CkptScaleTable(
		"Checkpoint scaling — full vs delta snapshots and segments at 1x/3x/10x state, fixed hot set (3 nodes)",
		experiments.CkptScale(o)))
}

func runSubscribe(o experiments.Options) {
	fmt.Println(experiments.SubscribeTable(
		"Standing queries — 10K subscriptions sharing one arrangement vs 10K polling clients (128 partitions, 3 nodes)",
		experiments.Subscribe(o)))
}
