package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/dataflow"
	"squery/internal/metrics"
)

// The checkpoint-scaling experiment demonstrates the point of incremental
// checkpoints: as total state grows ~10x while the per-interval update
// set stays fixed, the cost of a checkpoint must track the delta, not the
// state. Two configurations run over the same workload, both pinned at
// the barrier and drained off it:
//
//   - "full": full snapshots persisted as full segments — every
//     checkpoint is O(state).
//   - "delta": incremental in-memory snapshots persisted as delta
//     segments with periodic compaction — every checkpoint is O(delta).
//
// Expected shape: full wall time and bytes/checkpoint grow roughly with
// the key count; delta stays near flat (bytes track the fixed hot set).

// CkptScaleRow is one (mode, state size) point of the sweep.
type CkptScaleRow struct {
	Mode      string
	Keys      int
	Ckpts     int64         // committed checkpoints measured
	Wall      time.Duration // mean 2PC wall time (inject -> committed)
	Stall     time.Duration // mean barrier-path stall (phase 1)
	BytesPer  int64         // persisted bytes per checkpoint
	DeltaSegs int64         // delta segments written during measurement
	FullSegs  int64         // full segments written during measurement
}

// ckptScaleSizes returns the swept total key counts: 1x, 3x and 10x the
// base size, with a fixed hot set so the per-checkpoint delta is constant
// across the sweep.
func (o Options) ckptScaleSizes() (sizes []int, hot int) {
	base := 10_000
	if o.Quick {
		base = 2_000
	}
	return []int{base, 3 * base, 10 * base}, base / 10
}

// CkptScale runs the sweep and returns one row per (mode, size) point.
func CkptScale(o Options) []CkptScaleRow {
	sizes, hot := o.ckptScaleSizes()
	modes := []struct {
		label string
		state core.Config
		pol   core.PersistPolicy
	}{
		{"full", core.Config{Snapshots: true}, core.PersistPolicy{FullOnly: true}},
		{"delta", core.Config{Snapshots: true, Incremental: true}, core.PersistPolicy{}},
	}
	var out []CkptScaleRow
	for _, m := range modes {
		for _, keys := range sizes {
			out = append(out, runCkptScale(o, m.label, keys, hot, m.state, m.pol))
		}
	}
	return out
}

// runCkptScale populates `keys` keys, then keeps updating a fixed hot set
// of `hot` keys while periodic checkpoints run, and measures the
// steady-state per-checkpoint cost.
func runCkptScale(o Options, label string, keys, hot int, state core.Config, pol core.PersistPolicy) CkptScaleRow {
	nodes := 3
	clu := cluster.New(cluster.Config{Nodes: nodes})
	dir, err := os.MkdirTemp("", "squery-ckptscale-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	total := int64(keys)
	hotKeys := int64(hot)
	par := nodes
	src := dataflow.GeneratorSource("updates", par, 50_000, func(instance int, seq int64) (dataflow.Record, bool) {
		g := seq*int64(par) + int64(instance)
		var key int64
		if g < total {
			key = g // initial population covers every key
		} else {
			key = g % hotKeys // steady state touches only the fixed hot set
		}
		return dataflow.Record{Key: key, Value: g}, true
	})
	dag := dataflow.NewDAG().
		AddVertex(src).
		AddVertex(dataflow.StatefulMapVertex("scalestate", nodes*2,
			func(st any, rec dataflow.Record) (any, []dataflow.Record) {
				return rec.Value, []dataflow.Record{rec}
			})).
		AddVertex(dataflow.LatencySinkVertex("sink", nodes, metrics.NewHistogram())).
		Connect("updates", "scalestate", dataflow.EdgePartitioned).
		Connect("scalestate", "sink", dataflow.EdgePartitioned)
	job, err := dataflow.Run(dag, dataflow.Config{
		Name:             "ckptscale",
		Cluster:          clu,
		State:            state,
		SnapshotInterval: o.interval(),
		PersistDir:       dir,
		Persist:          pol,
	})
	if err != nil {
		panic(err)
	}
	defer job.Stop()

	// Warm up: full population plus at least two committed checkpoints, so
	// the measured interval sees only steady-state (hot set) deltas.
	deadline := time.Now().Add(120 * time.Second)
	for job.SourceMeter().Count() < uint64(total) || job.Manager().Registry().LatestCommitted() < 2 {
		if time.Now().After(deadline) {
			panic("experiments: ckpt-scale workload did not warm up")
		}
		time.Sleep(time.Millisecond)
	}
	job.SnapshotPhase1().Reset()
	job.SnapshotTotal().Reset()
	stats0 := job.Manager().Persister().Stats()
	c0 := job.Manager().Registry().LatestCommitted()
	time.Sleep(o.deltaMeasure())
	// The window must hold whole checkpoints: when instrumentation (e.g.
	// the race detector) slows commits past the nominal measure time,
	// keep waiting until at least two landed, or bytes/ckpt would divide
	// partial write activity by a clamped count.
	deadline = time.Now().Add(120 * time.Second)
	for job.Manager().Registry().LatestCommitted() < c0+2 {
		if time.Now().After(deadline) {
			panic("experiments: ckpt-scale measured no checkpoints")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats1 := job.Manager().Persister().Stats()
	ckpts := job.Manager().Registry().LatestCommitted() - c0
	if ckpts < 1 {
		ckpts = 1
	}
	return CkptScaleRow{
		Mode:      label,
		Keys:      keys,
		Ckpts:     ckpts,
		Wall:      job.SnapshotTotal().Snapshot().Quantiles[0.5],
		Stall:     job.SnapshotPhase1().Snapshot().Quantiles[0.5],
		BytesPer:  (stats1.BytesWritten - stats0.BytesWritten) / ckpts,
		DeltaSegs: stats1.DeltaSegments - stats0.DeltaSegments,
		FullSegs:  stats1.FullSegments - stats0.FullSegments,
	}
}

// CkptScaleTable renders the sweep as the aligned table squery-bench
// prints.
func CkptScaleTable(title string, rows []CkptScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %8s %6s %10s %10s %12s %6s %6s\n",
		"mode", "keys", "ckpts", "wall p50", "stall p50", "bytes/ckpt", "dsegs", "fsegs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %6d %10s %10s %12d %6d %6d\n",
			r.Mode, r.Keys, r.Ckpts, roundDur(r.Wall), roundDur(r.Stall),
			r.BytesPer, r.DeltaSegs, r.FullSegs)
	}
	return b.String()
}
