package main

// The four workloads. Every one runs the whole system — pipeline,
// checkpoints, query clients, subscribers — because every metric is
// reported on every workload; they differ in where the load is and which
// segment a metric is taken from. Sizes, rates and mixes are constants
// fixed from scratch runs of the seed code on the recorded host (2 cores),
// where this DAG saturates near 125 K records/s with four subscriptions
// attached and an unloaded Query 1-4 takes about 0.18 s on 50 K orders.
// The rates keep the machine well under one busy core where a latency is
// taken: an idle-polling source, the 1 s checkpoints and the collector
// already cost about 60 µs of CPU per record at 10 K records/s, and on two
// shared cores a busier schedule does not repeat. For the same reason a
// closed-loop block has one client, not two: a second one takes the core
// the pipeline, the checkpointer and the collector need, and what it
// measures then is the scheduler.

const (
	pacedRate   = 10_000 // ingest, mixed: records/s
	trickleRate = 1_000  // query, and every closed-loop block
	subRate     = 1_000  // subscribe
)

// probeLanes are a synthetic monitor's worth of open-loop traffic, run by
// every workload that has no heavier lanes of its own so that open-loop
// latency (timed from the due time, so stalls count) is reported
// everywhere.
var probeLanes = []lane{
	{rate: 20, mix: []qclass{qPoint}},
	{rate: 1, mix: []qclass{qJoin, qScan}},
}

// mixedLanes are the mixed workload's independent users: a fast lane of
// point and index reads and a slow lane of snapshot joins and live scans.
var mixedLanes = []lane{
	{rate: 100, mix: []qclass{qPoint, qPoint, qPoint, qPoint, qPoint, qPoint, qPoint, qPoint, qPoint, qIndex}},
	{rate: 2, mix: []qclass{qJoin, qScan}},
}

var workloads = []*workload{
	{
		name:   "ingest",
		why:    "the write path: after a closed-loop block that keeps the read metrics reported, paced Zipf(1.1) writes with persisted 1 s checkpoints under only a probe lane of queries, then the source unthrottled",
		orders: 50_000, riders: 5_000, persist: true,
		filters: 2, aggs: 1, joins: 1,
		segs: []segment{
			{name: "closed", share: 0.35, rate: trickleRate, clients: 1, feeds: mQuery | mClosed},
			{name: "paced", share: 0.40, rate: pacedRate, lanes: probeLanes, feeds: mRecord},
			{name: "saturated", share: 0.25, feeds: mSaturated},
		},
	},
	{
		name:   "query",
		why:    "the read path: a closed-loop client over a fixed class mix while the pipeline trickles, so a write-path change must not move it",
		orders: 50_000, riders: 5_000,
		filters: 2, aggs: 1, joins: 1,
		segs: []segment{
			{name: "closed", share: 0.75, rate: trickleRate, lanes: probeLanes, clients: 1, feeds: mRecord | mQuery | mClosed},
			{name: "saturated", share: 0.25, feeds: mSaturated},
		},
	},
	{
		name:   "mixed",
		why:    "both paths at once on two cores: ingest's paced pipeline under open-loop query lanes timed from their due times, the only place key-lock and checkpoint-vs-query interference can show",
		orders: 50_000, riders: 5_000, persist: true,
		filters: 2, aggs: 1, joins: 1,
		segs: []segment{
			{name: "closed", share: 0.30, rate: trickleRate, clients: 1, feeds: mQuery | mClosed},
			{name: "paced", share: 0.45, rate: pacedRate, lanes: mixedLanes, feeds: mRecord},
			{name: "saturated", share: 0.25, feeds: mSaturated},
		},
	},
	{
		name:   "subscribe",
		why:    "the push path: 64 standing queries (48 filters, 8 aggregates, 8 joins) fed by a paced pipeline, the only user of tap, arrangement and subscriber queues at scale",
		orders: 10_000, riders: 1_000,
		filters: 48, aggs: 8, joins: 8,
		segs: []segment{
			{name: "closed", share: 0.35, rate: trickleRate, clients: 1, feeds: mQuery | mClosed},
			{name: "paced", share: 0.40, rate: subRate, lanes: probeLanes, feeds: mRecord},
			{name: "saturated", share: 0.25, feeds: mSaturated},
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
