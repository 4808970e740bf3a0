package squery

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/metrics"
)

// The engine applies the paper's thesis to itself: its own runtime
// telemetry is state, and state is queryable. Every layer records into one
// metrics.Registry — operator instances ("operator" subsystem), the
// checkpoint coordinator ("checkpoint"), the KV store ("kv") and the SQL
// executor ("sql") — and the registry is surfaced as virtual system tables
// (sys.operators, sys.partitions, sys.checkpoints, sys.queries, and the
// health plane: sys.watermarks, sys.backpressure, sys.history,
// sys.slow_queries) that flow through the normal SQL path: they can be
// filtered, joined, aggregated and EXPLAIN ANALYZEd like any state table.

// Metrics returns the engine's registry, or nil when Config.DisableMetrics
// was set. Callers may resolve their own instruments under it.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// MetricsDump renders every instrument and event log as plain text — the
// output behind the -metrics flags of cmd/squery and cmd/squery-bench.
func (e *Engine) MetricsDump() string { return e.reg.Dump() }

// registerSystemTables installs the sys.* virtual tables. Each provider
// reads the registry (or the tracer's span ring) at query time, so the
// tables are always live. The metrics-backed tables require a registry,
// the span tables a tracer; either may be disabled independently.
func (e *Engine) registerSystemTables() {
	if e.reg != nil {
		e.cat.RegisterVirtual("sys.operators", e.sysOperators)
		e.cat.RegisterVirtual("sys.partitions", e.sysPartitions)
		e.cat.RegisterVirtual("sys.checkpoints", func() []core.TableRow {
			return eventRows(e.reg.Log("checkpoints", 256))
		})
		e.cat.RegisterVirtual("sys.queries", func() []core.TableRow {
			return eventRows(e.reg.Log("queries", e.lim.QueryLogCapacity))
		})
		e.cat.RegisterVirtual("sys.slow_queries", func() []core.TableRow {
			return eventRows(e.reg.Log("slow_queries", e.lim.SlowQueryLogCapacity))
		})
		e.cat.RegisterVirtual("sys.watermarks", e.sysWatermarks)
		e.cat.RegisterVirtual("sys.backpressure", e.sysBackpressure)
		e.cat.RegisterVirtual("sys.history", e.sysHistory)
	}
	if e.tracer != nil {
		e.cat.RegisterVirtual("sys.spans", e.sysSpans)
		e.cat.RegisterVirtual("sys.traces", e.sysTraces)
	}
	// The transport always exists (simulated or networked), so its
	// accounting is queryable regardless of which planes are disabled.
	e.cat.RegisterVirtual("sys.network", e.sysNetwork)
	// Membership and rebalance visibility read the cluster directly, so
	// they too work with every plane disabled — and, crucially, while a
	// rebalance is still running.
	e.cat.RegisterVirtual("sys.membership", e.sysMembership)
	e.cat.RegisterVirtual("sys.rebalances", e.sysRebalances)
	// Secondary-index accounting also reads the store directly: one row
	// per index with its size and maintenance/lookup tallies.
	e.cat.RegisterVirtual("sys.indexes", e.sysIndexes)
	// Standing-query visibility reads the subscription registry and the
	// arrangement registry directly, so it works with every plane
	// disabled — SUBSCRIBE itself does not depend on metrics.
	e.cat.RegisterVirtual("sys.subscriptions", e.sysSubscriptions)
	e.cat.RegisterVirtual("sys.arrangements", e.sysArrangements)
}

// sysSubscriptions is one row per live subscription: its statement,
// source tables and overload policy, queue occupancy against capacity,
// and the delivery accounting — frames delivered, frames shed on
// overload, resync snapshots issued, and the source-delta watermark the
// standing result has folded in. The lag column is the queue depth: how
// many frames the consumer is behind the standing query.
func (e *Engine) sysSubscriptions() []core.TableRow {
	stats := e.Subscriptions()
	rows := make([]core.TableRow, 0, len(stats))
	for _, s := range stats {
		rows = append(rows, core.TableRow{Key: s.ID, Value: kv.MapRow{
			"subscription": s.ID,
			"query":        s.Query,
			"tables":       strings.Join(s.Tables, ","),
			"policy":       s.Policy.String(),
			"queueCap":     int64(s.QueueCap),
			"lag":          int64(s.Queued),
			"delivered":    int64(s.Delivered),
			"shed":         int64(s.Shed),
			"resyncs":      int64(s.Resyncs),
			"watermark":    int64(s.Watermark),
			"ageUs":        s.Age.Microseconds(),
		}})
	}
	return rows
}

// sysArrangements is one row per shared arrangement: the table it
// arranges, how many standing queries share it, the table's current row
// count, and its delta accounting — deltasIn, applied and watermark all
// count the deltas handed on from the store's tap (nothing buffers in
// between) — and the partition replacements (failovers, migrations,
// clears) the table has been through since the arrangement was built.
func (e *Engine) sysArrangements() []core.TableRow {
	infos := e.Arrangements()
	rows := make([]core.TableRow, 0, len(infos))
	for _, a := range infos {
		rows = append(rows, core.TableRow{Key: a.Table, Value: kv.MapRow{
			"table":     a.Table,
			"refs":      int64(a.Refs),
			"rows":      int64(a.Rows),
			"deltasIn":  int64(a.DeltasIn),
			"applied":   int64(a.Applied),
			"resets":    int64(a.Resets),
			"watermark": int64(a.Applied),
		}})
	}
	return rows
}

// sysIndexes is one row per secondary index: the table and column it
// covers, its structure kind, entry/byte footprint, cumulative inline
// maintenance operations with sampled p50/p99 latency, and how many
// lookups it has served. KV map names equal SQL table names (snapshot
// tables carry the snapshot_ prefix), so rows join the query surface
// directly.
func (e *Engine) sysIndexes() []core.TableRow {
	infos := e.clu.Store().IndexInfos()
	rows := make([]core.TableRow, 0, len(infos))
	for _, ix := range infos {
		rows = append(rows, core.TableRow{Key: ix.Map + "." + ix.Column, Value: kv.MapRow{
			"table":      ix.Map,
			"column":     ix.Column,
			"kind":       ix.Kind,
			"entries":    ix.Entries,
			"bytes":      ix.Bytes,
			"maintOps":   ix.MaintOps,
			"maintP50Us": ix.MaintP50.Microseconds(),
			"maintP99Us": ix.MaintP99.Microseconds(),
			"lookups":    ix.Lookups,
		}})
	}
	return rows
}

// sysMembership is one row per node ever provisioned: its lifecycle state,
// how many partitions it currently owns and backs up, and the partition
// table epoch (identical on every row; stale-epoch writes are fenced
// against it).
func (e *Engine) sysMembership() []core.TableRow {
	epoch := e.clu.Epoch()
	members := e.clu.Members()
	rows := make([]core.TableRow, 0, len(members))
	for _, m := range members {
		rows = append(rows, core.TableRow{Key: m.Node, Value: kv.MapRow{
			"node":       m.Node,
			"state":      m.State.String(),
			"live":       m.State == cluster.NodeLive,
			"partitions": int64(m.Partitions),
			"backups":    int64(m.Backups),
			"epoch":      epoch,
		}})
	}
	return rows
}

// sysRebalances is one row per membership change (join or leave): the
// epochs it spanned, whether it is still running, and its migration
// tallies — move count, aborted moves, entries and bytes shipped, and the
// average/max per-move duration.
func (e *Engine) sysRebalances() []core.TableRow {
	rebs := e.clu.Rebalances()
	rows := make([]core.TableRow, 0, len(rebs))
	for _, r := range rebs {
		var ops, bytes, aborted, backupMoves int64
		var moveTotal, moveMax time.Duration
		for _, mv := range r.Moves {
			ops += int64(mv.Ops)
			bytes += int64(mv.Bytes)
			if mv.Aborted {
				aborted++
			}
			if mv.BackupOnly {
				backupMoves++
			}
			moveTotal += mv.Duration
			if mv.Duration > moveMax {
				moveMax = mv.Duration
			}
		}
		avg := time.Duration(0)
		if n := len(r.Moves); n > 0 {
			avg = moveTotal / time.Duration(n)
		}
		rows = append(rows, core.TableRow{Key: r.ID, Value: kv.MapRow{
			"rebalance":    r.ID,
			"kind":         r.Kind,
			"node":         r.Node,
			"epochBefore":  r.EpochBefore,
			"epochAfter":   r.EpochAfter,
			"running":      r.Running,
			"droppedBump":  r.DroppedBump,
			"aborted":      r.Aborted,
			"moves":        int64(len(r.Moves)),
			"abortedMoves": aborted,
			"backupMoves":  backupMoves,
			"ops":          ops,
			"bytes":        bytes,
			"durationUs":   r.Duration.Microseconds(),
			"avgMoveUs":    avg.Microseconds(),
			"maxMoveUs":    moveMax.Microseconds(),
		}})
	}
	return rows
}

// sysNetwork is the transport's wire accounting: one row with the
// inter-node message, operation and payload-byte totals.
func (e *Engine) sysNetwork() []core.TableRow {
	st := e.clu.Transport().Stats()
	return []core.TableRow{{Key: "transport", Value: kv.MapRow{
		"transport": "cluster",
		"messages":  int64(st.Messages),
		"ops":       int64(st.Ops),
		"bytes":     int64(st.Bytes),
	}}}
}

// sysOperators is one row per operator instance: routing counters,
// barrier-alignment and state-update latency summaries.
func (e *Engine) sysOperators() []core.TableRow {
	vals := e.reg.Values("operator")
	hists := e.reg.HistogramsIn("operator")
	ids := make(map[string]bool, len(vals))
	for id := range vals {
		ids[id] = true
	}
	for id := range hists {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	rows := make([]core.TableRow, 0, len(sorted))
	for _, id := range sorted {
		v := vals[id]
		h := hists[id]
		vertex, inst := operatorID(id)
		rows = append(rows, core.TableRow{Key: id, Value: kv.MapRow{
			"vertex":           vertex,
			"instance":         inst,
			"node":             v["node"],
			"recordsIn":        v["records_in"],
			"recordsOut":       v["records_out"],
			"checkpoints":      v["checkpoints"],
			"barrierWaits":     histCount(h["barrier_wait"]),
			"barrierWaitAvgUs": histMeanUs(h["barrier_wait"]),
			"stateUpdates":     v["state_updates"],
			"stateUpdateAvgUs": histMeanUs(h["state_update"]),
		}})
	}
	return rows
}

// idleAfter is how long without a processed record an operator instance
// must be before sys.watermarks reports it idle. Idleness is judged at
// query time from the last_record_us gauge, so a stalled stage flips to
// idle without any hot-path bookkeeping.
const idleAfter = time.Second

// operatorID splits a per-instance instrument id ("vertex/3") into its
// vertex name and instance number.
func operatorID(id string) (vertex string, instance int) {
	vertex, instance = id, -1
	if i := strings.LastIndex(id, "/"); i >= 0 {
		vertex = id[:i]
		instance, _ = strconv.Atoi(id[i+1:])
	}
	return vertex, instance
}

// sortedOperatorIDs returns the instance ids of the operator subsystem
// that carry the given marker metric, sorted.
func sortedOperatorIDs(vals map[string]map[string]int64, marker string) []string {
	ids := make([]string, 0, len(vals))
	for id, v := range vals {
		if _, ok := v[marker]; ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// sysWatermarks is one row per operator instance with its event-time
// progress: the current watermark, its lag behind the wall clock, when the
// instance last processed (or emitted) a record, and whether it has gone
// idle. The lag column is a derived gauge evaluated at read time, so a
// frozen watermark shows ever-growing lag — the primary stall signal the
// chaos tests assert on.
func (e *Engine) sysWatermarks() []core.TableRow {
	vals := e.reg.Values("operator")
	now := time.Now()
	ids := sortedOperatorIDs(vals, "watermark_us")
	rows := make([]core.TableRow, 0, len(ids))
	for _, id := range ids {
		v := vals[id]
		vertex, inst := operatorID(id)
		last := v["last_record_us"]
		idleUs := int64(0)
		if last > 0 {
			idleUs = now.UnixMicro() - last
		}
		rows = append(rows, core.TableRow{Key: id, Value: kv.MapRow{
			"vertex":       vertex,
			"instance":     inst,
			"node":         v["node"],
			"watermarkUs":  v["watermark_us"],
			"lagUs":        v["watermark_lag_us"],
			"lastRecordUs": last,
			"idleUs":       idleUs,
			"idle":         last == 0 || idleUs >= idleAfter.Microseconds(),
		}})
	}
	return rows
}

// sysBackpressure is one row per operator instance with its queueing
// health: inbox depth against capacity, cumulative blocked sends with the
// time they cost, the lifetime share of wall time spent blocked, and the
// combined pressure score — max(inbox fill, blocked-send share) in
// permille, so both a stalled stage (full inbox) and the upstream stage it
// throttles (blocked sends) read as pressured.
func (e *Engine) sysBackpressure() []core.TableRow {
	vals := e.reg.Values("operator")
	ids := sortedOperatorIDs(vals, "pressure_permille")
	rows := make([]core.TableRow, 0, len(ids))
	for _, id := range ids {
		v := vals[id]
		vertex, inst := operatorID(id)
		depth, capacity := v["inbox_depth"], v["inbox_capacity"]
		fill := int64(0)
		if capacity > 0 {
			fill = depth * 1000 / capacity
		}
		rows = append(rows, core.TableRow{Key: id, Value: kv.MapRow{
			"vertex":           vertex,
			"instance":         inst,
			"node":             v["node"],
			"inboxDepth":       depth,
			"inboxCapacity":    capacity,
			"fillPermille":     fill,
			"blockedSends":     v["blocked_sends"],
			"blockedUs":        v["blocked_send_ns"] / 1000,
			"blockedPermille":  v["send_blocked_permille"],
			"pressurePermille": v["pressure_permille"],
		}})
	}
	return rows
}

// sysHistory exposes the registry's retained metric snapshots as a time
// series: one row per (snapshot, instrument), oldest snapshot first, with
// a per-second rate computed against the same instrument in the previous
// snapshot (counters only; gauges and histogram counts carry rate 0).
// `WHERE metric = 'records_in'` recovers one instrument's series;
// `WHERE snapshot = N` recovers one capture.
func (e *Engine) sysHistory() []core.TableRow {
	snaps := e.reg.History()
	var rows []core.TableRow
	var prev map[metrics.InstrumentKey]int64
	var prevAt time.Time
	for i, s := range snaps {
		cur := make(map[metrics.InstrumentKey]int64, len(s.Points))
		for _, p := range s.Points {
			cur[p.Key] = p.Value
			rate := 0.0
			if p.Kind == "counter" && prev != nil {
				if pv, ok := prev[p.Key]; ok {
					rate = metrics.Rate(pv, p.Value, prevAt, s.At)
				}
			}
			rows = append(rows, core.TableRow{Key: strconv.Itoa(i) + "/" + p.Key.String(), Value: kv.MapRow{
				"snapshot":   int64(i),
				"atUnixUs":   s.At.UnixMicro(),
				"subsystem":  p.Key.Subsystem,
				"id":         p.Key.ID,
				"metric":     p.Key.Metric,
				"kind":       p.Kind,
				"value":      p.Value,
				"ratePerSec": rate,
			}})
		}
		prev, prevAt = cur, s.At
	}
	return rows
}

// sysPartitions is one row per state partition: KV operation counts and
// lock contention from the store, scan activity from the SQL executor.
func (e *Engine) sysPartitions() []core.TableRow {
	kvVals := e.reg.Values("kv")
	sqlVals := e.reg.Values("sql")
	sqlHists := e.reg.HistogramsIn("sql")
	assign := e.clu.Store().Assignment()
	nparts := e.clu.Store().Partitioner().Count()
	rows := make([]core.TableRow, 0, nparts)
	for p := 0; p < nparts; p++ {
		id := "p" + strconv.Itoa(p)
		v := kvVals[id]
		sv := sqlVals[id]
		rows = append(rows, core.TableRow{Key: p, Value: kv.MapRow{
			"partition":    p,
			"node":         assign.Owner(p),
			"gets":         v["gets"],
			"sets":         v["sets"],
			"deletes":      v["deletes"],
			"scans":        v["scans"],
			"lockWaits":    v["lock_waits"],
			"lockWaitUs":   v["lock_wait_ns"] / 1000,
			"sqlScans":     sv["scans"],
			"sqlScanRows":  sv["rows"],
			"sqlScanAvgUs": histMeanUs(sqlHists[id]["scan"]),
		}})
	}
	return rows
}

// eventRows adapts an event log's retained events as table rows, oldest
// first, with the ring sequence number as both key and "seq" column. An
// event's "ssid" field (checkpoint events carry one) is mirrored into the
// row's SSID so the ssid pseudo-column — which shadows value fields —
// reports the event's snapshot id instead of the virtual table's zero.
func eventRows(l *metrics.EventLog) []core.TableRow {
	events := l.Events()
	rows := make([]core.TableRow, 0, len(events))
	for _, ev := range events {
		m := make(kv.MapRow, len(ev.Fields)+1)
		for k, v := range ev.Fields {
			m[k] = v
		}
		m["seq"] = int64(ev.Seq)
		ssid, _ := m["ssid"].(int64)
		rows = append(rows, core.TableRow{Key: int64(ev.Seq), SSID: ssid, Value: m})
	}
	return rows
}

func histCount(h *metrics.Histogram) int64 {
	if h == nil {
		return 0
	}
	return int64(h.Count())
}

func histMeanUs(h *metrics.Histogram) int64 {
	if h == nil {
		return 0
	}
	return h.Mean().Microseconds()
}
