package main

import (
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"squery"
	"squery/bench/stats"
	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/persist"
	"squery/internal/qcommerce"
	"squery/internal/sql"
	"squery/internal/transport"
	"squery/internal/wire"
)

// Per-layer numbers of a traced run. Three sources, none of them an
// instrument added to the engine: the benchmark's own spans, deltas of
// counters the engine already exports, and probe loops over each layer's
// public functions on values from the workload's generator.

// counters is one reading of the engine's public counters.
type counters struct {
	records                  int64
	kvOps, kvLockWaits       int64
	msgs, netBytes           uint64
	deltaSegs, fullSegs      int64
	totalAlloc, mallocs      uint64
	gcPauseNs                uint64
	numGC                    uint32
	cpuNs                    int64
	ckptSeq                  uint64 // last event of the checkpoints log
	fenceRejects, ckptAborts int64
}

func readCounters(e *env) counters {
	c := counters{records: e.p.emitted.Load(), cpuNs: cpuNs()}
	reg := e.eng.Metrics()
	for _, part := range reg.Values("kv") {
		c.kvOps += part["gets"] + part["sets"] + part["deletes"]
		c.kvLockWaits += part["lock_waits"]
	}
	ck := reg.Values("checkpoint")["bench"]
	c.deltaSegs, c.fullSegs = ck["delta_segments"], ck["full_segments"]
	st := e.eng.Transport().Stats()
	c.msgs, c.netBytes = st.Messages, st.Bytes
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.mallocs, c.gcPauseNs, c.numGC = ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs, ms.NumGC
	c.fenceRejects = e.eng.FenceStats().Rejects
	c.ckptAborts = e.job.CheckpointAborts()
	if evs := reg.Log("checkpoints", 256).Events(); len(evs) > 0 {
		c.ckptSeq = evs[len(evs)-1].Seq
	}
	return c
}

func (c counters) minus(o counters) counters {
	c.records -= o.records
	c.kvOps -= o.kvOps
	c.kvLockWaits -= o.kvLockWaits
	c.msgs -= o.msgs
	c.netBytes -= o.netBytes
	c.deltaSegs -= o.deltaSegs
	c.fullSegs -= o.fullSegs
	c.totalAlloc -= o.totalAlloc
	c.mallocs -= o.mallocs
	c.gcPauseNs -= o.gcPauseNs
	c.numGC -= o.numGC
	c.cpuNs -= o.cpuNs
	c.fenceRejects -= o.fenceRejects
	c.ckptAborts -= o.ckptAborts
	return c
}

// pressure returns the highest pressure and blocked-send share, in
// permille, any operator instance reports (the sys.backpressure columns).
func (e *env) pressure() (pressure, blocked float64) {
	for _, inst := range e.eng.Metrics().Values("operator") {
		pressure = math.Max(pressure, float64(inst["pressure_permille"]))
		blocked = math.Max(blocked, float64(inst["send_blocked_permille"]))
	}
	return pressure, blocked
}

func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers fills in every per-layer metric.
func (e *env) layers(w *workload, o runOpts, segRes []*segResult, before, window, sat counters, res *result) {
	v := res.values
	rec := e.rec

	// Spans of sampled records, checkpoints and queries.
	perRec := func() *stats.Samples { return stats.NewSamples(len(rec.recs)) }
	hopOp, hopSink, procSelf, emit, get, upd := perRec(), perRec(), perRec(), perRec(), perRec(), perRec()
	for _, sp := range rec.recs {
		if sp.sinkNs == 0 || sp.op[4] == 0 {
			continue
		}
		hopOp.Add(sp.op[0] - sp.emitNs)
		hopSink.Add(sp.sinkNs - sp.op[3])
		emit.Add(sp.op[4] - sp.op[3])
		get.Add(sp.op[1] - sp.op[0])
		upd.Add(sp.op[3] - sp.op[2])
		procSelf.Add(sp.op[2] - sp.op[1])
	}
	v["dataflow.hop_op_p50_us"] = pct(hopOp, 50, 1e3)
	v["dataflow.hop_sink_p50_us"] = pct(hopSink, 50, 1e3)
	v["dataflow.process_self_p50_ns"] = pct(procSelf, 50, 1)
	v["dataflow.emit_p50_ns"] = pct(emit, 50, 1)
	v["core.state_get_p50_ns"] = pct(get, 50, 1)
	v["core.state_update_p50_ns"] = pct(upd, 50, 1)
	v["core.state_update_p99_ns"] = pct(upd, 99, 1)

	p1, p2 := stats.NewSamples(len(rec.ckpts)), stats.NewSamples(len(rec.ckpts))
	for _, c := range rec.ckpts {
		p1.Add(c.phase1Ns)
		p2.Add(c.endNs - c.startNs - c.phase1Ns)
	}
	v["dataflow.ckpt_phase1_p50_ms"] = pct(p1, 50, 1e6)
	v["dataflow.ckpt_phase2_p50_ms"] = pct(p2, 50, 1e6)
	v["dataflow.ckpt_aborts"] = float64(window.ckptAborts)

	var exec [nClasses + 1]*stats.Samples
	for c := range exec {
		exec[c] = stats.NewSamples(len(rec.qspans))
	}
	for _, q := range rec.qspans {
		exec[q.class].Add(max(q.runNs-q.explainNs, 0))
	}
	v["sql.exec_point_us"] = pct(exec[qPoint], 50, 1e3)
	v["sql.exec_index_us"] = pct(exec[qIndex], 50, 1e3)
	v["sql.exec_scan_ms"] = pct(exec[qScan], 50, 1e6)
	v["sql.exec_join_ms"] = pct(exec[qJoin], 50, 1e6)

	// The first segment's two halves: the untraced one against the traced.
	if a, b := segRes[0], segRes[1]; w.segs[0].feeds&mClosed != 0 {
		v["bench.trace_overhead_pct"] = 100 * per(a.closedQPS-b.closedQPS, a.closedQPS)
	} else {
		pa, pb := pct(e.p.lat[1], 50, 1), pct(e.p.lat[2], 50, 1)
		v["bench.trace_overhead_pct"] = 100 * per(pb-pa, pa)
	}

	// Counter deltas.
	v["kv.ops_per_record"] = per(float64(sat.kvOps), float64(sat.records))
	v["kv.lock_wait_share"] = per(float64(window.kvLockWaits), float64(window.kvOps))
	v["kv.fence_rejects"] = float64(window.fenceRejects)
	v["transport.msgs_per_record"] = per(float64(sat.msgs), float64(sat.records))
	v["runtime.alloc_bytes_per_record"] = per(float64(sat.totalAlloc), float64(sat.records))
	v["runtime.allocs_per_record"] = per(float64(sat.mallocs), float64(sat.records))
	v["runtime.gc_pause_total_ms"] = float64(window.gcPauseNs) / 1e6
	v["runtime.gc_cycles"] = float64(window.numGC)
	v["runtime.cpu_s"] = float64(window.cpuNs) / 1e9
	v["persist.delta_segments"] = float64(window.deltaSegs)
	v["persist.full_segments"] = float64(window.fullSegs)

	// Checkpoint events of the window (sys.checkpoints' backing log).
	dirty, pbytes := stats.NewSamples(256), stats.NewSamples(256)
	var sumDirty, sumBytes, chainMax int64
	for _, ev := range e.eng.Metrics().Log("checkpoints", 256).Events() {
		if ev.Fields["outcome"] != "committed" || ev.Seq <= before.ckptSeq {
			continue
		}
		dk := toInt(ev.Fields["deltaKeys"])
		dirty.Add(dk)
		if b, ok := ev.Fields["persistBytes"]; ok {
			pbytes.Add(toInt(b))
			sumBytes += toInt(b)
			sumDirty += dk
			chainMax = max(chainMax, toInt(ev.Fields["chainLen"]))
		}
	}
	v["core.ckpt_dirty_keys_p50"] = pct(dirty, 50, 1)
	v["persist.bytes_per_ckpt_p50"] = pct(pbytes, 50, 1)
	v["persist.chain_len_max"] = float64(chainMax)

	// Subscriptions.
	var byKind [nSubKinds]*stats.Samples
	for k := range byKind {
		byKind[k] = stats.NewSamples(0)
	}
	attach := stats.NewSamples(len(e.subs))
	var deltas, shed, resyncs int64
	depth := 0
	for _, s := range e.subs {
		s.mu.Lock()
		byKind[s.spec.kind] = merged(byKind[s.spec.kind], s.lat)
		deltas += s.deltas
		depth = max(depth, s.maxDepth)
		s.mu.Unlock()
		attach.Add(s.attachNs)
		st := s.sub.Stats()
		shed += int64(st.Shed)
		resyncs += int64(st.Resyncs)
	}
	v["sql.sub_attach_p50_ms"] = pct(attach, 50, 1e6)
	v["sql.sub_delivery_filter_p50_us"] = pct(byKind[subFilter], 50, 1e3)
	v["sql.sub_delivery_agg_p50_us"] = pct(byKind[subAgg], 50, 1e3)
	v["sql.sub_delivery_join_p50_us"] = pct(byKind[subJoin], 50, 1e3)
	v["sql.sub_deltas_per_write"] = per(float64(deltas), float64(window.records))
	v["squery.sub_shed"] = float64(shed)
	v["squery.sub_resyncs"] = float64(resyncs)
	v["squery.sub_queue_depth_max"] = float64(depth)
	var refs int
	arrs := e.eng.Arrangements()
	for _, a := range arrs {
		refs += a.Refs
	}
	v["core.arrangements"] = float64(len(arrs))
	v["core.arrangement_refs"] = float64(refs)

	e.idleProbes(v)

	// The single-threaded baseline: this job, saturated, on one P.
	runtime.GOMAXPROCS(1)
	extra := len(w.segs) + 1
	if _, err := e.runSegment(extra, segment{name: "gomaxprocs1", share: refSaturated}, o.seconds); err == nil {
		v["baseline.gomaxprocs1_max_throughput_rps"] = e.p.throughput(extra)
	}
	runtime.GOMAXPROCS(procs)

	probes(e.g, v)
	v["persist.write_amp"] = per(float64(sumBytes), float64(sumDirty)*v["wire.bytes_per_row"])

	// What the subscriptions hold: live heap with and without them. The
	// verifier is done with them by now.
	with := heapLiveMB()
	n := len(e.subs)
	for _, s := range e.subs {
		s.close()
	}
	e.subs = nil
	v["sql.sub_heap_kb_per_sub"] = per((with-heapLiveMB())*1024, float64(n))

	e.references(w, o, v)
}

// idleProbes measures on the run's own engine with the pipeline idle:
// what one checkpoint and one join put on the wire, and what sys.queries
// says each class examined.
func (e *env) idleProbes(v map[string]float64) {
	e.p.drainTo(e.p.setPace(0, 0, 5000), 30*time.Second)
	tr := e.eng.Transport()
	s0 := tr.Stats()
	if err := e.checkpoint(0); err == nil {
		s1 := tr.Stats()
		v["transport.msgs_per_ckpt"] = float64(s1.Messages - s0.Messages)
		v["transport.bytes_per_ckpt"] = float64(s1.Bytes - s0.Bytes)
	}
	log := e.eng.Metrics().Log("queries", 256)
	last := func(text string) map[string]any {
		if _, err := e.eng.Query(text); err != nil {
			return nil
		}
		evs := log.Events()
		return evs[len(evs)-1].Fields
	}
	g := e.g
	if f := last(`SELECT orderState, seq FROM orderstate WHERE partitionKey='` + g.keyStrs[kStatus][0] + `'`); f != nil {
		v["sql.rows_scanned_point"] = float64(toInt(f["rowsScanned"]))
	}
	if f := last(`SELECT partitionKey, deliveryZone FROM orderinfo WHERE vendor = '` + vendorName(1) + `'`); f != nil {
		v["sql.rows_scanned_index"] = float64(toInt(f["rowsScanned"]))
	}
	if f := last(scanQuery); f != nil {
		v["sql.rows_scanned_scan"] = float64(toInt(f["rowsScanned"]))
	}
	s0 = tr.Stats()
	if f := last(qcommerce.Query1); f != nil {
		v["transport.msgs_per_join"] = float64(tr.Stats().Messages - s0.Messages)
		v["sql.rows_scanned_join"] = float64(toInt(f["rowsScanned"]))
		v["sql.rows_shipped_join"] = float64(toInt(f["rowsShipped"]))
		v["sql.bytes_shipped_join"] = float64(toInt(f["bytesShipped"]))
		// stages reads "scan=1.2ms hashjoin=340µs aggregate=80µs".
		for _, st := range strings.Fields(f["stages"].(string)) {
			kind, dur, _ := strings.Cut(st, "=")
			d, err := time.ParseDuration(dur)
			if err != nil {
				continue
			}
			ms := float64(d) / 1e6
			switch {
			case strings.Contains(kind, "scan"):
				v["sql.stage_scan_ms_join"] += ms
			case strings.Contains(kind, "join"):
				v["sql.stage_join_ms_join"] += ms
			case strings.Contains(kind, "agg"):
				v["sql.stage_agg_ms_join"] += ms
			}
		}
	}
	// Parse and plan, in tight loops on the texts the clients send.
	point := `SELECT orderState, seq FROM orderstate WHERE partitionKey='` + g.keyStrs[kStatus][0] + `'`
	for _, q := range []struct{ name, text string }{{"point", point}, {"join", qcommerce.Query1}} {
		parse := loopNs(2000, func(int) { _, _ = sql.Parse(q.text) })
		explain := loopNs(500, func(int) { _, _ = e.eng.Explain(q.text) })
		v["sql.parse_"+q.name+"_ns"] = parse
		v["sql.plan_"+q.name+"_ns"] = math.Max(explain-parse, 0)
	}
}

// loopNs times n calls of fn in a tight loop and returns nanoseconds per
// call.
func loopNs(n int, fn func(i int)) float64 {
	t0 := nowNs()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(nowNs()-t0) / float64(n)
}

type nopTap struct{}

func (nopTap) OnDeltas([]kv.Delta) {}
func (nopTap) OnReset(int)         {}

// probes times each layer's public functions on values drawn from the
// workload's generator, on scratch stores of the engine's shape (271
// partitions over 3 nodes).
func probes(g *gen, v map[string]float64) {
	const parts, nodes = 271, 3
	n := g.orders
	vals := make([]any, n)
	for i := range vals {
		vals[i] = OrderState{OrderState: qcommerce.OrderStates[i%8], LateTimestamp: lateStamp(i), StampNs: int64(i), Seq: int64(i + 1)}
	}
	keys := g.keys[kStatus]
	store := kv.NewStore(partition.New(parts), partition.Assign(parts, nodes), nil)
	view := store.View(0)

	v["bench.timer_ns"] = loopNs(200_000, func(int) { _ = nowNs() - nowNs() })
	v["partition.hash_ns"] = loopNs(200_000, func(i int) { _ = partition.Hash(keys[i%n]) })

	v["kv.put_ns"] = loopNs(n, func(i int) { view.Put("plain", keys[i], vals[i]) })
	v["kv.get_ns"] = loopNs(n, func(i int) { _, _ = view.Get("plain", keys[i]) })
	plain := store.GetMap("plain")
	rows := 0
	scan := loopNs(parts, func(p int) {
		plain.ScanPartition(p, func(kv.Entry) bool { rows++; return true })
	})
	v["kv.scan_ns_per_row"] = per(scan*parts, float64(rows))

	indexed := store.GetMap("indexed")
	_, err1 := indexed.CreateIndex("orderState", kv.IndexHash, nil)
	_, err2 := indexed.CreateIndex("seq", kv.IndexBTree, nil)
	if err1 == nil && err2 == nil {
		v["kv.put_indexed_ns"] = loopNs(n, func(i int) { view.Put("indexed", keys[i], vals[i]) })
		v["kv.index_probe_ns"] = loopNs(parts*8, func(i int) {
			indexed.ScanPartitionIndexed(i%parts, kv.IndexLookup{Col: "seq", Eq: int64(i + 1)}, kv.ScanOpts{}, func(kv.Entry) bool { return true })
		})
	}
	store.GetMap("tapped").AttachTap(nopTap{})
	v["kv.put_tapped_ns"] = loopNs(n, func(i int) { view.Put("tapped", keys[i], vals[i]) })
	ops := make([]kv.Op, 32)
	v["kv.putbatch_ns_per_op"] = loopNs(n/32, func(b int) {
		for j := range ops {
			ops[j] = kv.Op{Key: keys[b*32+j], Value: vals[b*32+j]}
		}
		view.PutBatch("plain", ops)
	}) / 32

	// core: pin and drain a dirty set; tap → arrangement apply.
	cfg := core.Config{Live: true, Snapshots: true, Incremental: true}
	be := core.NewBackend("probe", 0, view, cfg)
	for i := 0; i < n; i++ {
		be.Update(keys[i], vals[i])
	}
	t0 := nowNs()
	pin, err := be.SnapshotPin(1)
	t1 := nowNs()
	if err == nil && pin != nil {
		be.DrainPin(pin)
		v["core.pin_ns_per_key"] = float64(t1-t0) / float64(pin.Len())
		v["core.drain_ns_per_key"] = float64(nowNs()-t1) / float64(pin.Len())
	}
	areg := core.NewArrangeRegistry(store)
	if arr, err := areg.Acquire("probe"); err == nil {
		base := areg.Infos()[0].Applied
		t0 := nowNs()
		for i := 0; i < n; i++ {
			view.Put("probe", keys[i], vals[(i+1)%n])
		}
		for deadline := time.Now().Add(10 * time.Second); areg.Infos()[0].Applied < base+int64(n) && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		v["core.arrange_apply_ns_per_delta"] = float64(nowNs()-t0) / float64(n)
		arr.Release()
	}

	// wire: the state structs take AppendValue's per-value gob fallback.
	const wn = 5000
	var buf []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	enc := loopNs(wn, func(i int) { buf, _ = wire.AppendValue(buf[:0], vals[i%n]) })
	runtime.ReadMemStats(&ms1)
	v["wire.encode_ns_per_row"] = enc
	v["wire.encode_allocs_per_row"] = float64(ms1.Mallocs-ms0.Mallocs) / wn
	v["wire.bytes_per_row"] = float64(len(buf))
	v["wire.decode_ns_per_row"] = loopNs(wn, func(int) { _, _, _ = wire.DecodeValue(buf) })

	sim := transport.NewSim(transport.SimConfig{})
	v["transport.sim_send_ns"] = loopNs(200_000, func(int) { sim.Send(transport.Msg{From: 0, To: 1, Ops: 1, Bytes: 64}) })

	// persist: a full base, four deltas, and a read that replays them.
	dir, err := scratchRoot()
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	ps, err := persist.Open(dir)
	if err != nil {
		return
	}
	full := make([]persist.Entry, n)
	for i := range full {
		full[i] = persist.Entry{Key: keys[i], Value: vals[i]}
	}
	if ps.WriteSegment(1, "orderstate", full) != nil || ps.Commit(1) != nil {
		return
	}
	const dn = 1000
	delta := make([]persist.DeltaEntry, dn)
	var writeNs int64
	for ssid := int64(2); ssid <= 5; ssid++ {
		for i := range delta {
			k := (int(ssid)*dn + i) % n
			delta[i] = persist.DeltaEntry{Key: keys[k], Value: vals[(k+1)%n]}
		}
		t0 := nowNs()
		if ps.WriteDeltaSegment(ssid, "orderstate", ssid-1, delta) != nil || ps.Commit(ssid) != nil {
			return
		}
		writeNs += nowNs() - t0
	}
	v["persist.write_delta_us_per_key"] = float64(writeNs) / 1e3 / (4 * dn)
	t0 = nowNs()
	if _, err := ps.ReadState(5, "orderstate"); err == nil {
		v["persist.read_state_ms"] = float64(nowNs()-t0) / 1e6
	}
}

// Reference segments, as shares of --seconds.
const (
	refPaced     = 0.125
	refSaturated = 0.1
)

// references runs the reference segments on engines of their own: the
// workload's pipeline with observability off, and in Jet mode.
func (e *env) references(w *workload, o runOpts, v map[string]float64) {
	var rate float64 // of the segment the record metrics are taken from
	for _, s := range w.segs {
		if s.feeds&mRecord != 0 {
			rate = s.rate
		}
	}
	ref := &workload{name: w.name, orders: w.orders, riders: w.riders, persist: w.persist,
		segs: []segment{
			{name: "ref-paced", share: refPaced, rate: rate, feeds: mRecord},
			{name: "ref-saturated", share: refSaturated, feeds: mSaturated},
		}}
	run := func(cfg squery.Config, state squery.StateConfig, segs int) (*env, []*segResult) {
		// Jet's blob snapshots never reach the persisted snapshot store.
		ref.persist = w.persist && !state.JetBlob
		scratch, err := scratchRoot()
		if err != nil {
			return nil, nil
		}
		defer os.RemoveAll(scratch)
		r, err := setUp(ref, o.seed, o.seconds, scratch, cfg, state, nil)
		if err != nil {
			return nil, nil
		}
		defer r.close()
		out := make([]*segResult, segs)
		for i := 0; i < segs; i++ {
			if out[i], err = r.runSegment(i+1, ref.segs[i], o.seconds); err != nil {
				return nil, nil
			}
		}
		return r, out
	}
	if r, sr := run(squery.Config{DisableMetrics: true, DisableTracing: true, DisableHistory: true}, sqState, 1); r != nil {
		v["metrics.obs_off_record_p50_us"] = pct(r.p.lat[1], 50, 1e3)
		v["metrics.obs_off_cpu_us_per_record"] = per(float64(sr[0].cpuNs)/1e3, float64(sr[0].records))
	}
	if r, _ := run(squery.Config{}, jetState, 2); r != nil {
		v["baseline.jet_record_p50_us"] = pct(r.p.lat[1], 50, 1e3)
		v["baseline.jet_ckpt_2pc_p50_ms"] = pct(r.ckpt[1], 50, 1e6)
		v["baseline.jet_max_throughput_rps"] = r.p.throughput(2)
	}
}

// bytes approximates the heap the recorder holds, to leave it out of
// heap_live_mb like the sample buffers.
func (r *recorder) bytes() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.recs))*96 + int64(len(r.ckpts))*24 + int64(len(r.qspans))*56 + int64(len(r.deliveries))*24
}
