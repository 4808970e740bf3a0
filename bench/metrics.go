package main

// The metric catalogue: every name the benchmark can print, with its unit
// and direction. BENCHMARK.json lists the same names (a test holds the two
// together); which list a name is on there — end_to_end, with a bound, or
// per_layer — decides whether an untraced or a traced run reports it.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	how    string // one line for the README's catalogue
}

// endToEndDefs are the sixteen user-visible metrics. Those that did not
// repeat within a bound on every workload are listed under per_layer in
// BENCHMARK.json (demoted, same name), and a traced run reports them.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", "engine, indexes, preload through the pipeline, first snapshot, subscriptions, warm-up; median of three set-ups per run"},
	{"record_latency_p50_us", "us", "lower", "source→sink latency from the record's scheduled due time at the fixed offered rate"},
	{"record_latency_p99_us", "us", "lower", "same samples, 99th percentile"},
	{"max_throughput_rps", "1/s", "higher", "records/s at the sink, first to last arrival, with the source unthrottled and bounded channels pushing back"},
	{"cpu_us_per_record", "us", "lower", "process CPU (getrusage) over records offered during the record-latency segment"},
	{"ckpt_2pc_p50_ms", "ms", "lower", "wall of Job.CheckpointNow, barrier to commit, called once a second by the benchmark"},
	{"query_throughput_qps", "1/s", "higher", "query operations (an index operation is two statements) completed per second by one closed-loop client over the 70/10/4/4/12 mix, object blocks not counted"},
	{"query_point_p50_us", "us", "lower", "SELECT … FROM orderstate WHERE partitionKey='…' on live state"},
	{"query_point_p99_us", "us", "lower", "same samples, 99th percentile"},
	{"query_index_p50_us", "us", "lower", "a hash-equality read of orderinfo.vendor then a B-tree range read of orderstate.seq over the most recent writes, timed as one operation"},
	{"query_scan_p50_ms", "ms", "lower", "grouped aggregate with a non-indexed predicate: a full pushed-down scan of live orderinfo"},
	{"query_join_p50_ms", "ms", "lower", "the paper's Queries 1-4 verbatim on snapshot tables, rotating"},
	{"object_get_kops", "1/ms", "higher", "Engine.Object(riderlocation).GetLive of 10 keys, calls per millisecond within a 1000-call block"},
	{"sub_delivery_p50_us", "us", "lower", "state write (stamp taken just before Backend.Update) → delta received by the subscriber"},
	{"sub_delivery_p99_us", "us", "lower", "same samples, 99th percentile"},
	{"heap_live_mb", "MB", "lower", "HeapAlloc after a forced GC at the end of the window, job and subscriptions alive, minus the benchmark's sample buffers"},
}

// layerDefs are the per-layer metrics of a traced run, by package.
var layerDefs = []metricDef{
	// dataflow
	{"dataflow.hop_op_p50_us", "us", "lower", "span: source emit → operator Process entry"},
	{"dataflow.hop_sink_p50_us", "us", "lower", "span: operator emit call → sink entry"},
	{"dataflow.process_self_p50_ns", "ns", "lower", "span: Process minus state.get, state.update and emit"},
	{"dataflow.emit_p50_ns", "ns", "lower", "span: the emit call (route + channel send)"},
	{"dataflow.source_late_p99_us", "us", "lower", "how late the paced source offered a record"},
	{"dataflow.pressure_max_permille", "permille", "lower", "max over instances of sys.backpressure pressurePermille after the record segment"},
	{"dataflow.blocked_send_max_permille", "permille", "lower", "max over instances of blockedPermille"},
	{"dataflow.ckpt_phase1_p50_ms", "ms", "lower", "delta of Job.SnapshotPhase1().Sum() across one CheckpointNow"},
	{"dataflow.ckpt_phase2_p50_ms", "ms", "lower", "CheckpointNow wall minus phase 1"},
	{"dataflow.ckpt_aborts", "count", "lower", "Job.CheckpointAborts"},
	// core
	{"core.state_get_p50_ns", "ns", "lower", "span: Backend.Get"},
	{"core.state_update_p50_ns", "ns", "lower", "span: Backend.Update"},
	{"core.state_update_p99_ns", "ns", "lower", "same; the tail holds the mirror-batch flush"},
	{"core.pin_ns_per_key", "ns", "lower", "probe: Backend.SnapshotPin over a dirty set"},
	{"core.drain_ns_per_key", "ns", "lower", "probe: Backend.DrainPin of that pin"},
	{"core.ckpt_dirty_keys_p50", "count", "lower", "deltaKeys of sys.checkpoints rows in the window"},
	{"core.arrange_apply_ns_per_delta", "ns", "lower", "probe: puts into a tapped map until the arrangement has applied them, per put"},
	{"core.arrangements", "count", "lower", "shared arrangements alive at the end of the window"},
	{"core.arrangement_refs", "count", "lower", "standing-query references on them"},
	// kv
	{"kv.get_ns", "ns", "lower", "probe: NodeView.Get"},
	{"kv.put_ns", "ns", "lower", "probe: NodeView.Put, plain map"},
	{"kv.put_indexed_ns", "ns", "lower", "probe: Put into a map with a hash and a B-tree index"},
	{"kv.put_tapped_ns", "ns", "lower", "probe: Put into a map with a tap attached"},
	{"kv.putbatch_ns_per_op", "ns", "lower", "probe: PutBatch of 32 ops, per op"},
	{"kv.scan_ns_per_row", "ns", "lower", "probe: ScanPartition over every partition, per row"},
	{"kv.index_probe_ns", "ns", "lower", "probe: ScanPartitionIndexed equality lookup, per partition"},
	{"kv.ops_per_record", "count", "lower", "sys.partitions gets+sets+deletes per record over the saturated segment"},
	{"kv.lock_wait_share", "ratio", "lower", "sys.partitions lockWaits ÷ operations over the window"},
	{"kv.fence_rejects", "count", "lower", "FenceStats().Rejects"},
	// sql
	{"sql.parse_point_ns", "ns", "lower", "probe: sql.Parse of the point query"},
	{"sql.parse_join_ns", "ns", "lower", "probe: sql.Parse of Query 1"},
	{"sql.plan_point_ns", "ns", "lower", "probe: Engine.Explain minus parse"},
	{"sql.plan_join_ns", "ns", "lower", "probe: Engine.Explain minus parse"},
	{"sql.exec_point_us", "us", "lower", "span: Engine.Query minus Engine.Explain on the same text"},
	{"sql.exec_index_us", "us", "lower", "same, the hash-equality half of the index class"},
	{"sql.exec_scan_ms", "ms", "lower", "same, scan class"},
	{"sql.exec_join_ms", "ms", "lower", "same, join class"},
	{"sql.stage_scan_ms_join", "ms", "lower", "sys.queries stage wall of a join, scan stages"},
	{"sql.stage_join_ms_join", "ms", "lower", "same, join stage"},
	{"sql.stage_agg_ms_join", "ms", "lower", "same, aggregate stage"},
	{"sql.rows_scanned_point", "count", "lower", "sys.queries rowsScanned of one point read"},
	{"sql.rows_scanned_index", "count", "lower", "same, index-equality read"},
	{"sql.rows_scanned_scan", "count", "lower", "same, scan"},
	{"sql.rows_scanned_join", "count", "lower", "same, Query 1"},
	{"sql.rows_shipped_join", "count", "lower", "sys.queries rowsShipped of Query 1"},
	{"sql.bytes_shipped_join", "B", "lower", "sys.queries bytesShipped of Query 1"},
	{"sql.sub_attach_p50_ms", "ms", "lower", "Engine.Subscribe → first snapshot frame received"},
	{"sql.sub_delivery_filter_p50_us", "us", "lower", "sub_delivery of the single-table filters"},
	{"sql.sub_delivery_agg_p50_us", "us", "lower", "sub_delivery of the aggregates"},
	{"sql.sub_delivery_join_p50_us", "us", "lower", "sub_delivery of the joins"},
	{"sql.sub_deltas_per_write", "ratio", "lower", "deltas received by all subscribers per record written in the window"},
	{"sql.sub_heap_kb_per_sub", "kB", "lower", "live heap with all subscriptions attached minus after closing them, per subscription"},
	// squery
	{"squery.sub_shed", "count", "lower", "frames shed, all subscriptions"},
	{"squery.sub_resyncs", "count", "lower", "resync snapshots, all subscriptions"},
	{"squery.sub_queue_depth_max", "count", "lower", "deepest subscriber queue a receiver saw"},
	{"squery.object_get_ns_per_key", "ns", "lower", "object block wall per key read"},
	// wire
	{"wire.encode_ns_per_row", "ns", "lower", "probe: AppendValue of the workload's OrderState values"},
	{"wire.decode_ns_per_row", "ns", "lower", "probe: DecodeValue"},
	{"wire.bytes_per_row", "B", "lower", "encoded size"},
	{"wire.encode_allocs_per_row", "count", "lower", "mallocs per AppendValue"},
	// transport
	{"transport.msgs_per_record", "ratio", "lower", "sys.network messages per record over the saturated segment"},
	{"transport.msgs_per_ckpt", "count", "lower", "messages of one checkpoint of a 5000-record delta, pipeline idle"},
	{"transport.bytes_per_ckpt", "B", "lower", "bytes of that checkpoint"},
	{"transport.msgs_per_join", "count", "lower", "messages of one Query 1, pipeline idle"},
	{"transport.sim_send_ns", "ns", "lower", "probe: Sim.Send of one accounted message"},
	// persist
	{"persist.bytes_per_ckpt_p50", "B", "lower", "persistBytes of sys.checkpoints rows in the window"},
	{"persist.write_amp", "ratio", "lower", "persisted bytes ÷ (dirty keys × wire.bytes_per_row)"},
	{"persist.delta_segments", "count", "lower", "delta segments written in the window"},
	{"persist.full_segments", "count", "lower", "full segments written in the window"},
	{"persist.chain_len_max", "count", "lower", "longest delta chain a commit reported"},
	{"persist.write_delta_us_per_key", "us", "lower", "probe: Store.WriteDeltaSegment per entry"},
	{"persist.read_state_ms", "ms", "lower", "probe: Store.ReadState over a base and four deltas"},
	// partition
	{"partition.hash_ns", "ns", "lower", "probe: partition.Hash of an order key"},
	// metrics/trace
	{"metrics.obs_off_record_p50_us", "us", "lower", "reference segment with DisableMetrics, DisableTracing, DisableHistory: record_latency_p50_us"},
	{"metrics.obs_off_cpu_us_per_record", "us", "lower", "same segment: cpu_us_per_record"},
	// baseline
	{"baseline.jet_record_p50_us", "us", "lower", "reference segment in Jet mode (StateConfig{JetBlob}): record_latency_p50_us"},
	{"baseline.jet_ckpt_2pc_p50_ms", "ms", "lower", "same: ckpt_2pc_p50_ms"},
	{"baseline.jet_max_throughput_rps", "1/s", "higher", "same: max_throughput_rps"},
	{"baseline.gomaxprocs1_max_throughput_rps", "1/s", "higher", "the run's own job, saturated, at GOMAXPROCS=1"},
	// runtime, bench
	{"runtime.alloc_bytes_per_record", "B", "lower", "MemStats.TotalAlloc per record over the saturated segment"},
	{"runtime.allocs_per_record", "count", "lower", "MemStats.Mallocs per record over the saturated segment"},
	{"runtime.gc_pause_total_ms", "ms", "lower", "MemStats.PauseTotalNs over the window"},
	{"runtime.gc_cycles", "count", "lower", "MemStats.NumGC over the window"},
	{"runtime.cpu_s", "s", "lower", "process CPU over the window"},
	{"bench.trace_overhead_pct", "%", "lower", "traced vs untraced part of the first segment: record_latency_p50_us (query_throughput_qps on query)"},
	{"bench.spans", "count", "higher", "spans recorded"},
	{"bench.timer_ns", "ns", "lower", "one pair of clock reads: the floor under every ns-scale span"},
	{"bench.query_late_p99_us", "us", "lower", "how late an open-loop lane sent a query"},
	{"bench.lane_point_p50_us", "us", "lower", "open-loop lane: point read latency from its due time (mixed: 90 q/s under load; elsewhere a 20 q/s probe)"},
	{"bench.lane_point_p99_us", "us", "lower", "same samples, 99th percentile: what a checkpoint stall does to an independent user"},
	{"bench.lane_join_p50_ms", "ms", "lower", "open-loop lane: Queries 1-4 from their due times"},
	{"bench.lane_scan_p50_ms", "ms", "lower", "open-loop lane: the live scan from its due time"},
}

func defOf(name string) (metricDef, bool) {
	for _, d := range endToEndDefs {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range layerDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
