// Package squery is a from-scratch Go implementation of S-QUERY
// (Verheijde, Karakoidas, Fragkoulis, Katsifodimos: "S-QUERY: Opening the
// Black Box of Internal Stream Processor State", ICDE 2022): a distributed
// stream processor whose internal operator state — both the live state and
// the snapshot state captured by periodic coordinated checkpoints — is
// exposed to external applications as queryable key-value tables, through
// a SQL interface with joins and aggregates and through a direct object
// interface, with well-defined isolation levels.
//
// The Engine is the entry point: it owns a (simulated) cluster, runs
// stream processing jobs, and answers queries over their state.
//
//	eng := squery.New(squery.Config{Nodes: 3})
//	job, _ := eng.SubmitJob(dag, squery.JobSpec{
//		State:            squery.StateConfig{Live: true, Snapshots: true},
//		SnapshotInterval: time.Second,
//	})
//	res, _ := eng.Query(`SELECT COUNT(*), zone FROM snapshot_orders GROUP BY zone`)
//
// Every substrate — the dataflow runtime (the role Hazelcast Jet plays in
// the paper), the partitioned in-memory KV store (the role of Hazelcast
// IMDG), the SQL engine, the checkpoint/2PC machinery — is implemented in
// this module; see DESIGN.md for the system inventory and the mapping
// from the paper's experiments to the benchmark harness.
package squery

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/dataflow"
	"squery/internal/kv"
	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/persist"
	"squery/internal/sql"
	"squery/internal/trace"
	"squery/internal/transport"
)

// Re-exported building blocks. These are aliases, not copies: the public
// API and the internal implementation are the same types.
type (
	// Record is one data item flowing through a job.
	Record = dataflow.Record
	// DAG is a job graph.
	DAG = dataflow.DAG
	// Vertex is a DAG node.
	Vertex = dataflow.Vertex
	// Edge connects two vertices.
	Edge = dataflow.Edge
	// ProcContext is passed to processor factories.
	ProcContext = dataflow.ProcContext
	// Processor handles records of one operator instance.
	Processor = dataflow.Processor
	// Emit sends a record downstream.
	Emit = dataflow.Emit
	// SourceInstance is one parallel source instance.
	SourceInstance = dataflow.SourceInstance
	// SourceStatus is the result of a source poll.
	SourceStatus = dataflow.SourceStatus
	// StateConfig selects the state representations S-QUERY maintains.
	StateConfig = core.Config
	// PersistPolicy tunes the full-vs-delta decision of persisted
	// checkpoint commits (see core.PersistPolicy).
	PersistPolicy = core.PersistPolicy
	// StateBackend is the keyed state store of one operator instance.
	StateBackend = core.Backend
	// Result is a materialized SQL result set.
	Result = sql.Result
	// Key is a state/partitioning key.
	Key = partition.Key
	// KVEntry is one key-value pair returned by raw store scans.
	KVEntry = kv.Entry
	// Row exposes named columns of a state object.
	Row = kv.Row
	// WatermarkPolicy configures event-time watermark emission on a
	// source vertex.
	WatermarkPolicy = dataflow.WatermarkPolicy
	// WindowResult is the output of a closed event-time window.
	WindowResult = dataflow.WindowResult
	// WindowState is the queryable per-key state of a windowing operator.
	WindowState = dataflow.WindowState
	// FaultHook intercepts KV partition access checks for fault injection
	// (implemented by *chaos.Injector; see internal/chaos).
	FaultHook = kv.FaultHook
	// ChaosHook intercepts checkpoint control-plane messages for fault
	// injection (implemented by *chaos.Injector).
	ChaosHook = dataflow.ChaosHook
	// IndexKind selects a secondary index structure (IndexHash for
	// equality probes, IndexBTree for ranges).
	IndexKind = core.IndexKind
	// IndexInfo describes one secondary index: footprint and
	// maintenance/lookup accounting (the programmatic twin of
	// sys.indexes).
	IndexInfo = kv.IndexInfo
)

// Secondary index kinds.
const (
	// IndexHash serves equality probes in O(1).
	IndexHash = core.IndexHash
	// IndexBTree serves equality and inclusive-range probes in O(log n).
	IndexBTree = core.IndexBTree
)

// Vertex and edge constructors re-exported from the dataflow runtime.
var (
	// NewDAG returns an empty job graph.
	NewDAG = dataflow.NewDAG
	// MapVertex builds a stateless map/filter operator.
	MapVertex = dataflow.MapVertex
	// StatefulMapVertex builds a keyed stateful operator whose state is
	// live- and snapshot-queryable under the vertex name.
	StatefulMapVertex = dataflow.StatefulMapVertex
	// SinkVertex builds a sink from a per-record function.
	SinkVertex = dataflow.SinkVertex
	// LatencySinkVertex builds a sink recording source→sink latency.
	LatencySinkVertex = dataflow.LatencySinkVertex
	// SliceSource builds a finite replayable source from a record slice.
	SliceSource = dataflow.SliceSource
	// GeneratorSource builds a deterministic (optionally rate-limited)
	// generated source.
	GeneratorSource = dataflow.GeneratorSource
	// TumblingWindowVertex builds a keyed event-time tumbling-window
	// operator whose open windows are live- and snapshot-queryable.
	TumblingWindowVertex = dataflow.TumblingWindowVertex
	// SlidingWindowVertex builds overlapping event-time windows (size /
	// hop), tumbling when hop == size.
	SlidingWindowVertex = dataflow.SlidingWindowVertex
)

// Edge kinds.
const (
	// EdgePartitioned routes records by key hash (co-located with state).
	EdgePartitioned = dataflow.EdgePartitioned
	// EdgeForward connects equal-parallelism vertices one-to-one.
	EdgeForward = dataflow.EdgeForward
	// EdgeRoundRobin spreads records without keying.
	EdgeRoundRobin = dataflow.EdgeRoundRobin
)

// Vertex kinds.
const (
	// KindSource marks a source vertex.
	KindSource = dataflow.KindSource
	// KindOperator marks an inner operator vertex.
	KindOperator = dataflow.KindOperator
	// KindSink marks a sink vertex.
	KindSink = dataflow.KindSink
)

// Source poll statuses.
const (
	// SourceOK means a record was produced.
	SourceOK = dataflow.SourceOK
	// SourceIdle means nothing is available right now.
	SourceIdle = dataflow.SourceIdle
	// SourceDone means end of stream.
	SourceDone = dataflow.SourceDone
)

// Config describes the cluster an Engine manages.
type Config struct {
	// Nodes is the cluster size (default 3, like the paper's overhead
	// experiments; the snapshot experiments use 7).
	Nodes int
	// Partitions is the number of state partitions (default 271).
	Partitions int
	// NetworkLatency is the simulated one-way inter-node message cost;
	// 0 keeps the network free but still counts messages.
	NetworkLatency time.Duration
	// NetworkJitter adds up to this much random extra latency.
	NetworkJitter time.Duration
	// ReplicateState keeps a synchronous backup copy of every state
	// partition, so a node failure promotes replicas instead of losing
	// state (§V.A).
	ReplicateState bool
	// Transport, when non-nil, overrides the wire inter-node messages
	// cross (e.g. transport.NewLoopback() for real loopback-TCP frames).
	// Nil builds the in-process simulated transport from NetworkLatency
	// and NetworkJitter. The engine owns the transport either way; Close
	// tears it down.
	Transport transport.Transport
	// DisableMetrics runs the engine without a metrics registry: every
	// instrument resolves to a nil no-op, the sys.* system tables are not
	// registered, and MetricsDump reports metrics disabled. This is the
	// baseline of the instrumentation-overhead experiment in
	// EXPERIMENTS.md.
	DisableMetrics bool
	// DisableTracing runs the engine without a span tracer: no record,
	// checkpoint or query spans are recorded, the sys.spans/sys.traces
	// system tables are not registered, and /tracez serves an empty list.
	// This is the baseline of the tracing-overhead experiment.
	DisableTracing bool
	// TraceSampleEvery is the head-sampling rate for record traces: one
	// source record in every TraceSampleEvery starts a trace that is
	// carried through every hop to the sink (default 256). Checkpoint and
	// query traces are always sampled. 1 traces every record.
	TraceSampleEvery int
	// TraceCapacity bounds the number of completed spans retained in the
	// tracer's ring buffer (default 4096); older spans are overwritten.
	TraceCapacity int
	// HistoryInterval is the period of metric-history snapshots feeding
	// sys.history and the /statusz sparklines (default 1s).
	HistoryInterval time.Duration
	// HistoryWindow is how much history the snapshot ring retains
	// (default 60s; the ring holds HistoryWindow/HistoryInterval
	// snapshots, capped at 512).
	HistoryWindow time.Duration
	// DisableHistory turns periodic metric-history retention off;
	// sys.history then stays empty unless Metrics().Capture is called by
	// hand. The baseline of the health-plane overhead experiment.
	DisableHistory bool
	// SlowQueryThreshold is the wall time at or above which a query is
	// also recorded in sys.slow_queries (default 100ms; negative disables
	// the slow log).
	SlowQueryThreshold time.Duration
	// QueryLogCapacity caps the sys.queries event ring (default 256).
	QueryLogCapacity int
	// SlowQueryLogCapacity caps the sys.slow_queries ring (default 64).
	SlowQueryLogCapacity int
}

// Engine owns a cluster, its state store, and the query subsystem, and
// runs stream processing jobs whose state becomes queryable.
type Engine struct {
	clu    *cluster.Cluster
	cat    *core.Catalog
	ex     *sql.Executor
	reg    *metrics.Registry // nil when Config.DisableMetrics
	tracer *trace.Tracer     // nil when Config.DisableTracing
	lim    sql.MetricsLimits // resolved query-log/slow-query config

	mu   sync.Mutex
	jobs map[string]*Job

	// submitMu serialises catalog registration (SubmitJob, OpenArchive),
	// so a job whose operator names are free when checked still has them
	// when it registers.
	submitMu sync.Mutex

	// Standing-query registry (see subscribe.go).
	subMu  sync.Mutex
	subs   map[int64]*Subscription
	subSeq int64
	subIns subInstruments
}

// subInstruments aggregates subscription accounting under the ("sub",
// "reg") metric family; every field is a nil-safe no-op without metrics.
type subInstruments struct {
	active    atomic.Int64 // live subscriptions (squery_sub_active)
	delivered *metrics.Counter
	shed      *metrics.Counter
	resyncs   *metrics.Counter
	failfast  *metrics.Counter
}

// New creates an engine over a fresh simulated cluster.
func New(cfg Config) *Engine {
	clu := cluster.New(cluster.Config{
		Nodes:          cfg.Nodes,
		Partitions:     cfg.Partitions,
		NetworkLatency: cfg.NetworkLatency,
		NetworkJitter:  cfg.NetworkJitter,
		ReplicateState: cfg.ReplicateState,
		Transport:      cfg.Transport,
	})
	var reg *metrics.Registry
	if !cfg.DisableMetrics {
		reg = metrics.NewRegistry()
		if !cfg.DisableHistory {
			interval := cfg.HistoryInterval
			if interval <= 0 {
				interval = time.Second
			}
			window := cfg.HistoryWindow
			if window <= 0 {
				window = time.Minute
			}
			reg.Retain(interval, window)
		}
	}
	var tracer *trace.Tracer
	if !cfg.DisableTracing {
		tracer = trace.New(trace.Config{
			Capacity:    cfg.TraceCapacity,
			SampleEvery: cfg.TraceSampleEvery,
		})
	}
	clu.Store().SetMetrics(reg)
	cat := core.NewCatalog(clu.Store())
	e := &Engine{
		clu:    clu,
		cat:    cat,
		ex:     sql.NewExecutor(cat, clu.Nodes()),
		reg:    reg,
		tracer: tracer,
		jobs:   make(map[string]*Job),
		subs:   make(map[int64]*Subscription),
	}
	e.subIns.delivered = reg.Counter("sub", "reg", "delivered")
	e.subIns.shed = reg.Counter("sub", "reg", "shed")
	e.subIns.resyncs = reg.Counter("sub", "reg", "resyncs")
	e.subIns.failfast = reg.Counter("sub", "reg", "failfast")
	reg.GaugeFunc("sub", "reg", "active", e.subIns.active.Load)
	e.lim = sql.MetricsLimits{
		QueryLogCapacity:     cfg.QueryLogCapacity,
		SlowQueryLogCapacity: cfg.SlowQueryLogCapacity,
		SlowQueryThreshold:   cfg.SlowQueryThreshold,
	}.WithDefaults()
	e.ex.SetMetricsLimits(reg, e.lim)
	e.ex.SetTracer(tracer)
	clu.SetInstruments(reg, tracer)
	e.registerSystemTables()
	return e
}

// Nodes returns the cluster size, including joined and failed/left
// members (node ids are dense and never reused).
func (e *Engine) Nodes() int { return e.clu.Nodes() }

// FailNode simulates the loss of a cluster member: its partitions' data
// is dropped (or recovered from backups when Config.ReplicateState is
// on) and ownership moves to the backup nodes. Jobs keep running; to
// also crash and recover a job, call Job.InjectFailure. Failing the last
// live node is refused with an error.
func (e *Engine) FailNode(node int) error { return e.clu.Fail(node) }

// JoinNode adds a new member to the cluster and rebalances partitions
// onto it online, one migration at a time, while jobs keep running —
// fenced state writes racing a migration are transparently retried
// against the new owner. It returns the new node's id. Watch the
// rebalance through the sys.membership and sys.rebalances tables.
func (e *Engine) JoinNode() (int, error) {
	node, err := e.clu.Join()
	e.ex.SetClusterNodes(e.clu.Nodes())
	return node, err
}

// LeaveNode retires a member gracefully: its partitions are drained to
// the remaining live nodes online, then the node leaves. Unlike FailNode
// no data is ever at risk — the handoff completes before ownership flips.
func (e *Engine) LeaveNode(node int) error { return e.clu.Leave(node) }

// Members returns the membership view: every node ever provisioned with
// its state-machine state and current partition counts — the programmatic
// twin of the sys.membership table.
func (e *Engine) Members() []cluster.Member { return e.clu.Members() }

// Rebalances returns the rebalance history, oldest first, including one
// still in flight — the programmatic twin of sys.rebalances.
func (e *Engine) Rebalances() []cluster.Rebalance { return e.clu.Rebalances() }

// TableEpoch returns the partition table's current global epoch: 0 at
// birth, bumped by every failover promotion, migration flip, and join.
func (e *Engine) TableEpoch() int64 { return e.clu.Epoch() }

// Messages returns the number of inter-node messages sent so far.
func (e *Engine) Messages() uint64 { return e.clu.Messages() }

// Transport returns the wire the engine's cluster sends through.
func (e *Engine) Transport() transport.Transport { return e.clu.Transport() }

// Close ends every open subscription as Subscription.Close does (Events
// and Done close), stops the metric-history retention ticker and releases
// the engine's transport: the listener and connections of a networked
// transport, a no-op for the simulated one. Jobs should be stopped first.
func (e *Engine) Close() error {
	for _, s := range e.registered() {
		s.Close()
	}
	e.reg.StopRetain()
	return e.clu.Close()
}

// SetFaultHook installs a fault-injection hook on the cluster's KV access
// checks — stalled and unreachable partitions for guarded queries (see
// QueryWithOptions). Nil clears it. Faults only affect fallible query
// paths, never the data plane.
func (e *Engine) SetFaultHook(h FaultHook) { e.clu.SetFaultHook(h) }

// SetMigrationHook installs a migration fault-injection hook on the
// cluster's rebalancer (see internal/chaos): killed sources and targets
// mid-handoff, dropped epoch-bump broadcasts, stalled migrations. Nil
// clears it.
func (e *Engine) SetMigrationHook(h cluster.MigrationHook) { e.clu.SetMigrationHook(h) }

// CreateIndex builds a secondary index on one column of a state table and
// keeps it maintained inline on every subsequent state update, partition
// migration and failover. The planner then serves equality (IndexHash or
// IndexBTree) and range (IndexBTree) predicates on that column from the
// index instead of full partition scans — EXPLAIN shows the chosen access
// path, ExecOpts.DisableIndexes restores the full-scan baseline. Table
// names follow the query surface: <operator> indexes live state,
// snapshot_<operator> indexes committed snapshots (one index serves every
// queryable snapshot id). Creating the same index twice is idempotent;
// indexing a virtual sys.* table or a pseudo-column is an error.
func (e *Engine) CreateIndex(table, column string, kind IndexKind) error {
	return e.cat.CreateIndex(table, column, kind)
}

// IndexInfos returns accounting for every secondary index, sorted by
// table then column — the programmatic twin of sys.indexes.
func (e *Engine) IndexInfos() []IndexInfo { return e.clu.Store().IndexInfos() }

// FenceStats returns the cumulative epoch-fencing counters of the state
// store: writes rejected for carrying a stale partition-table epoch,
// retries that followed, and writes forced through after exhausting
// retries (the liveness backstop; a healthy run keeps it at zero).
func (e *Engine) FenceStats() kv.FenceStats { return e.clu.Store().FenceStats() }

// JobSpec configures a submitted job.
type JobSpec struct {
	// Name identifies the job; defaults to "job".
	Name string
	// State is the default state configuration for stateful vertices.
	State StateConfig
	// SnapshotInterval is the checkpoint period (0 = manual checkpoints
	// via Job.CheckpointNow).
	SnapshotInterval time.Duration
	// Retention is the number of committed snapshot versions kept
	// (default 2, the paper's constant-memory configuration).
	Retention int
	// ChannelCapacity bounds operator input queues.
	ChannelCapacity int
	// PersistDir, when set, writes every committed snapshot durably to
	// that directory; Engine.OpenArchive can later query it without the
	// job (stable-storage checkpoints, §IV). Commits are incremental:
	// each writes a delta segment holding only the changes since the
	// last durable snapshot, compacting per Persist policy.
	PersistDir string
	// Persist tunes the full-vs-delta decision of persisted commits
	// (zero value selects the defaults). Only meaningful with PersistDir.
	Persist PersistPolicy
	// CheckpointTimeout bounds phase 1 of every checkpoint; a checkpoint
	// whose acks do not arrive in time aborts and retries with backoff
	// instead of hanging. 0 disables the deadline.
	CheckpointTimeout time.Duration
	// CheckpointRetries is how many times an aborted checkpoint is
	// retried (default 3).
	CheckpointRetries int
	// CheckpointBackoff is the base retry delay, doubling per attempt
	// (default 10ms).
	CheckpointBackoff time.Duration
	// Chaos, when set, injects deterministic faults into the checkpoint
	// control plane (see internal/chaos).
	Chaos ChaosHook
}

// SubmitJob starts a job and registers its stateful operators' live and
// snapshot tables with the query catalog. Operator names must be unique
// across all running jobs — they are the SQL table names — and a clash is
// refused before the job starts, so the refused job never touches the
// running one's tables.
func (e *Engine) SubmitJob(dag *DAG, spec JobSpec) (*Job, error) {
	var stateful []string
	for _, v := range dag.Vertices() {
		if v.Stateful {
			stateful = append(stateful, v.Name)
		}
	}
	e.submitMu.Lock()
	defer e.submitMu.Unlock()
	if err := e.cat.CheckFree(stateful...); err != nil {
		return nil, err
	}
	job, err := dataflow.Run(dag, dataflow.Config{
		Name:              spec.Name,
		Cluster:           e.clu,
		State:             spec.State,
		SnapshotInterval:  spec.SnapshotInterval,
		Retention:         spec.Retention,
		ChannelCapacity:   spec.ChannelCapacity,
		PersistDir:        spec.PersistDir,
		Persist:           spec.Persist,
		CheckpointTimeout: spec.CheckpointTimeout,
		CheckpointRetries: spec.CheckpointRetries,
		CheckpointBackoff: spec.CheckpointBackoff,
		Chaos:             spec.Chaos,
		Metrics:           e.reg,
		Tracer:            e.tracer,
	})
	if err != nil {
		return nil, err
	}
	ops := job.StatefulOperators()
	if err := e.cat.RegisterJob(job.Manager().Registry(), ops...); err != nil {
		job.Stop()
		return nil, err
	}
	j := &Job{inner: job, engine: e, operators: ops, autoCkpt: spec.SnapshotInterval > 0}
	e.mu.Lock()
	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("job-%d", len(e.jobs)+1)
	}
	e.jobs[name] = j
	e.mu.Unlock()
	return j, nil
}

// cancelJob removes a job's tables from the catalog.
func (e *Engine) cancelJob(j *Job) {
	e.cat.UnregisterJob(j.operators...)
}

// OpenArchive imports the latest snapshot persisted in dir (written by a
// job with JobSpec.PersistDir) and registers its operators' snapshot
// tables with the query catalog, so historical state can be queried
// without the job running — the audit/compliance use case of §III. It
// returns the imported snapshot id and the operator names.
func (e *Engine) OpenArchive(dir string) (int64, []string, error) {
	p, err := persist.Open(dir)
	if err != nil {
		return 0, nil, err
	}
	e.submitMu.Lock()
	defer e.submitMu.Unlock()
	// Refuse before importing: the import writes into snapshot_<op>, which
	// a running job under the same operator name owns.
	latest, err := p.Latest()
	if err != nil {
		return 0, nil, err
	}
	if latest == 0 {
		return 0, nil, fmt.Errorf("squery: no committed snapshot in archive %s", dir)
	}
	ops, err := p.Operators(latest)
	if err != nil {
		return 0, nil, err
	}
	if err := e.cat.CheckFree(ops...); err != nil {
		return 0, nil, err
	}
	mgr := core.NewManager(e.clu.Store(), 0)
	ssid, err := mgr.ImportPersisted(p)
	if err != nil {
		return 0, nil, err
	}
	if err := e.cat.RegisterJob(mgr.Registry(), ops...); err != nil {
		return 0, nil, err
	}
	return ssid, ops, nil
}
