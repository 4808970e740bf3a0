package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/persist"
	"squery/internal/trace"
)

// Config configures a job.
type Config struct {
	// Name identifies the job (used for internal KV map names).
	Name string
	// Cluster the job runs on.
	Cluster *cluster.Cluster
	// State is the default S-QUERY state configuration for stateful
	// vertices (overridable per vertex).
	State core.Config
	// SnapshotInterval is the checkpoint period; 0 disables automatic
	// checkpoints (tests drive them via CheckpointNow).
	SnapshotInterval time.Duration
	// Retention is the number of committed snapshot versions kept
	// (<1 selects the paper's default of 2).
	Retention int
	// ChannelCapacity bounds operator input queues (backpressure).
	// Default 1024.
	ChannelCapacity int
	// PersistDir, when set, writes every committed snapshot to stable
	// storage in that directory (see internal/persist) before it is
	// published. Opt-in durability; commits are O(delta) — each writes
	// only the versions minted since the last durable snapshot, with
	// periodic compaction into full segments per Persist policy.
	PersistDir string
	// Persist tunes the full-vs-delta decision of persisted commits
	// (zero value selects the defaults; see core.PersistPolicy). Only
	// meaningful with PersistDir set.
	Persist core.PersistPolicy
	// CheckpointTimeout bounds phase 1 of every checkpoint: if the acks of
	// all live instances have not arrived within it, the checkpoint is
	// aborted and retried with exponential backoff instead of hanging
	// forever on a lost ack. 0 disables the deadline (a checkpoint then
	// waits indefinitely, the pre-chaos behavior).
	CheckpointTimeout time.Duration
	// CheckpointRetries is how many times an aborted (timed-out,
	// failed-pin or failed-commit) checkpoint is retried before the driver
	// gives up (the ticker then simply tries again at the next tick).
	// Default 3.
	CheckpointRetries int
	// CheckpointBackoff is the base delay between checkpoint retries; it
	// doubles per attempt. Default 10ms.
	CheckpointBackoff time.Duration
	// Chaos, when set, intercepts checkpoint control-plane messages for
	// deterministic fault injection (see internal/chaos).
	Chaos ChaosHook
	// Metrics, when set, receives the job's runtime telemetry: per-instance
	// operator counters and barrier-wait/state-update histograms under the
	// "operator" subsystem, checkpoint 2PC counters and phase timings under
	// "checkpoint", and a "checkpoints" event log. Nil disables all of it
	// (instruments resolve to nil no-ops).
	Metrics *metrics.Registry
	// Tracer, when set, records causal spans: head-sampled record lineage
	// (source→every hop→sink with queue wait vs process time), one trace
	// per checkpoint 2PC (barrier injection, per-worker alignment, pin
	// and drain, phase-1/phase-2), and chaos annotations. Nil disables
	// tracing (all span operations are no-ops).
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.ChannelCapacity <= 0 {
		c.ChannelCapacity = 1024
	}
	if c.Name == "" {
		c.Name = "job"
	}
	if c.CheckpointRetries <= 0 {
		c.CheckpointRetries = 3
	}
	if c.CheckpointBackoff <= 0 {
		c.CheckpointBackoff = 10 * time.Millisecond
	}
	return c
}

// ack is one instance's phase-1 acknowledgement of a checkpoint barrier.
type ack struct {
	vertex   string
	instance int
	ssid     int64
	offset   int64 // source replay offset; -1 for non-sources
	// drains marks that the instance pinned its state instead of writing
	// it: a drain acknowledgement will follow, and commit must wait for
	// it.
	drains bool
	// err is a failed pin: the instance captured nothing for this id, so
	// the id must not commit.
	err error
}

// Job is a running dataflow job.
type Job struct {
	cfg Config
	dag *DAG
	clu *cluster.Cluster
	mgr *core.Manager

	part        partition.Partitioner
	acksNeeded  int
	statefulOps []string
	// statefulIDs holds offsetKey(vertex, instance) for every stateful
	// instance. The coordinator consults it when an instance retires
	// mid-checkpoint: a stateful instance that finishes without acking the
	// in-flight barrier takes its un-snapshotted tail state with it, so
	// the round must not commit (see checkpointOnce).
	statefulIDs map[string]bool

	phase1Hist *metrics.Histogram // barrier injection -> all prepared
	totalHist  *metrics.Histogram // barrier injection -> committed
	sourceOut  *metrics.Meter
	ckptAborts atomic.Int64 // checkpoints aborted (timeout, kill, crash)
	ckptIns    ckptInstruments

	liveOffsets sync.Map // offsetKey -> *atomic.Int64, survives restarts

	// ckptTraces maps in-flight (and recently finished) checkpoint ids to
	// their root span context so workers can attach align/pin/drain child
	// spans. Bounded: entries older than the last few ids are pruned, so
	// stragglers from long-aborted rounds drop their spans instead of
	// leaking map entries.
	ckptTraceMu sync.Mutex
	ckptTraces  map[int64]trace.SpanContext

	// ckptMu serializes CheckpointNow callers: a second concurrent call
	// gets ErrConcurrentCheckpoint instead of racing the first for acks.
	ckptMu sync.Mutex

	// Membership watcher: Join/Leave completions on the cluster signal
	// membershipCh (coalesced), and the watcher goroutine reschedules the
	// job over the new live topology via the recovery path.
	reschedules  atomic.Int64
	membershipCh chan struct{}
	lisID        int
	reschedStop  chan struct{}
	reschedWg    sync.WaitGroup

	mu          sync.Mutex
	running     bool
	killCh      chan struct{}
	ackCh       chan ack
	retiredCh   chan retireMsg
	drainCh     chan drainMsg
	manualCoord *coordState
	workers     []*worker
	sources     []*sourceWorker
	wg          sync.WaitGroup
	drainWg     sync.WaitGroup
	coordWg     sync.WaitGroup
	coordTkr    *time.Ticker
	stopTick    chan struct{}
}

// ckptInstruments is the coordinator's registry-backed instrument set,
// keyed ("checkpoint", <job name>). All fields are nil (no-op) when the
// job runs without a registry.
type ckptInstruments struct {
	commits *metrics.Counter
	aborts  *metrics.Counter
	retries *metrics.Counter
	phase1  *metrics.Histogram
	phase2  *metrics.Histogram
	total   *metrics.Histogram
	log     *metrics.EventLog

	// Asynchronous-drain and incremental-persistence telemetry: how long
	// pinned deltas take to land (pin -> drained), drains cancelled by
	// aborted rounds, and the cumulative segment mix the persister wrote.
	drainLag        *metrics.Histogram
	drainsAbandoned *metrics.Counter
	deltaSegs       *metrics.Counter
	fullSegs        *metrics.Counter
	compactions     *metrics.Counter
	chainLen        *metrics.Gauge
}

// opInstruments is one operator instance's registry-backed instrument set,
// keyed ("operator", "<vertex>/<instance>"). The zero value is the no-op
// set.
type opInstruments struct {
	recordsIn   *metrics.Counter
	recordsOut  *metrics.Counter
	checkpoints *metrics.Counter
	barrierWait *metrics.Histogram

	// Health plane: event-time progress and backpressure. watermarkUs and
	// lastRecordUs are written on the data path (one atomic store each);
	// the lag/depth/pressure series derived from them are registered as
	// read-time GaugeFuncs in opInstrumentsFor, so they cost nothing per
	// record and are always fresh — a frozen stage still reports growing
	// lag.
	watermarkUs   *metrics.Gauge
	lastRecordUs  *metrics.Gauge
	blockedSends  *metrics.Counter
	blockedSendNs *metrics.Counter
}

// noteBlocked records one downstream send that found the channel full,
// measured from start. Nil-safe (no-op instruments).
func (ins *opInstruments) noteBlocked(d time.Duration) {
	ins.blockedSends.Inc()
	ins.blockedSendNs.Add(d.Nanoseconds())
}

// opInstrumentsFor resolves one instance's instruments (and publishes its
// scheduled node as a gauge). Resolution happens once at (re)start so the
// data path pays one atomic op per event, never a registry lookup. inbox
// is the instance's bounded input channel (nil for sources); the derived
// depth/pressure gauges close over it, and a restart re-registers them
// over the new run's channel.
func (j *Job) opInstrumentsFor(vertex string, instance, node int, inbox chan item) opInstruments {
	reg := j.cfg.Metrics
	if reg == nil {
		return opInstruments{}
	}
	id := fmt.Sprintf("%s/%d", vertex, instance)
	reg.Gauge("operator", id, "node").Set(int64(node))
	ins := opInstruments{
		recordsIn:     reg.Counter("operator", id, "records_in"),
		recordsOut:    reg.Counter("operator", id, "records_out"),
		checkpoints:   reg.Counter("operator", id, "checkpoints"),
		barrierWait:   reg.Histogram("operator", id, "barrier_wait"),
		watermarkUs:   reg.Gauge("operator", id, "watermark_us"),
		lastRecordUs:  reg.Gauge("operator", id, "last_record_us"),
		blockedSends:  reg.Counter("operator", id, "blocked_sends"),
		blockedSendNs: reg.Counter("operator", id, "blocked_send_ns"),
	}
	wm := ins.watermarkUs
	reg.GaugeFunc("operator", id, "watermark_lag_us", func() int64 {
		w := wm.Value()
		if w == 0 {
			return 0 // no watermark yet — lag is undefined, not huge
		}
		if lag := time.Now().UnixMicro() - w; lag > 0 {
			return lag
		}
		return 0
	})
	// Blocked-send share of lifetime, in permille. The counter survives
	// restarts while the epoch resets with this resolution, so clamp.
	blockedNs := ins.blockedSendNs
	epoch := time.Now()
	blockedShare := func() int64 {
		up := time.Since(epoch).Nanoseconds()
		if up <= 0 {
			return 0
		}
		p := blockedNs.Value() * 1000 / up
		if p > 1000 {
			p = 1000
		}
		return p
	}
	reg.GaugeFunc("operator", id, "send_blocked_permille", blockedShare)
	if inbox == nil {
		// Sources have no inbox; their only pressure signal is being
		// blocked sending downstream.
		reg.Gauge("operator", id, "inbox_capacity").Set(0)
		reg.GaugeFunc("operator", id, "inbox_depth", func() int64 { return 0 })
		reg.GaugeFunc("operator", id, "pressure_permille", blockedShare)
		return ins
	}
	capacity := int64(cap(inbox))
	reg.Gauge("operator", id, "inbox_capacity").Set(capacity)
	reg.GaugeFunc("operator", id, "inbox_depth", func() int64 { return int64(len(inbox)) })
	// Pressure blames the right stage: a stalled stage's own inbox fills
	// (fill fraction), while a stage throttled by its downstream spends
	// its time in blocked sends. Either signal alone marks the stage.
	reg.GaugeFunc("operator", id, "pressure_permille", func() int64 {
		var fill int64
		if capacity > 0 {
			fill = int64(len(inbox)) * 1000 / capacity
		}
		if b := blockedShare(); b > fill {
			return b
		}
		return fill
	})
	return ins
}

// Run validates the DAG, registers its stateful operators with a fresh
// snapshot manager, and starts the job.
func Run(dag *DAG, cfg Config) (*Job, error) {
	cfg = cfg.withDefaults()
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("dataflow: Config.Cluster is required")
	}
	if err := dag.Validate(); err != nil {
		return nil, err
	}
	j := &Job{
		cfg:        cfg,
		dag:        dag,
		clu:        cfg.Cluster,
		mgr:        core.NewManager(cfg.Cluster.Store(), cfg.Retention),
		part:       cfg.Cluster.Partitioner(),
		phase1Hist: metrics.NewHistogram(),
		totalHist:  metrics.NewHistogram(),
		sourceOut:  metrics.NewMeter(),
	}
	if reg := cfg.Metrics; reg != nil {
		j.ckptIns = ckptInstruments{
			commits: reg.Counter("checkpoint", cfg.Name, "commits"),
			aborts:  reg.Counter("checkpoint", cfg.Name, "aborts"),
			retries: reg.Counter("checkpoint", cfg.Name, "retries"),
			phase1:  reg.Histogram("checkpoint", cfg.Name, "phase1"),
			phase2:  reg.Histogram("checkpoint", cfg.Name, "phase2"),
			total:   reg.Histogram("checkpoint", cfg.Name, "total"),
			log:     reg.Log("checkpoints", 256),

			drainLag:        reg.Histogram("checkpoint", cfg.Name, "drain_lag"),
			drainsAbandoned: reg.Counter("checkpoint", cfg.Name, "drains_abandoned"),
			deltaSegs:       reg.Counter("checkpoint", cfg.Name, "delta_segments"),
			fullSegs:        reg.Counter("checkpoint", cfg.Name, "full_segments"),
			compactions:     reg.Counter("checkpoint", cfg.Name, "compactions"),
			chainLen:        reg.Gauge("checkpoint", cfg.Name, "chain_len"),
		}
	}
	if cfg.PersistDir != "" {
		p, err := persist.Open(cfg.PersistDir)
		if err != nil {
			return nil, err
		}
		j.mgr.SetPersister(p)
		j.mgr.SetPersistPolicy(cfg.Persist)
	}
	j.statefulIDs = map[string]bool{}
	for _, v := range dag.Vertices() {
		j.acksNeeded += v.Parallelism
		if v.Stateful {
			for i := 0; i < v.Parallelism; i++ {
				j.statefulIDs[offsetKey(v.Name, i)] = true
			}
			if err := j.mgr.RegisterOperator(core.OperatorMeta{
				Name:        v.Name,
				Parallelism: v.Parallelism,
				Config:      j.stateConfigFor(v),
			}); err != nil {
				return nil, err
			}
			j.statefulOps = append(j.statefulOps, v.Name)
		}
	}
	j.start(0, false)
	// React to cluster membership changes: when a node joins or leaves
	// (and its rebalance has completed), restart the workers over the new
	// live topology so instances actually land on joined nodes and vacate
	// left ones. Node *failures* deliberately do not signal — tests and
	// operators drive that recovery explicitly (InjectFailure).
	j.membershipCh = make(chan struct{}, 1)
	j.reschedStop = make(chan struct{})
	j.lisID = j.clu.OnMembershipChange(func() {
		select {
		case j.membershipCh <- struct{}{}:
		default: // a reschedule is already pending; it will see the final topology
		}
	})
	j.reschedWg.Add(1)
	go j.watchMembership(j.reschedStop, j.membershipCh)
	return j, nil
}

// watchMembership is the goroutine that turns membership-change signals
// into reschedules. Bursts are coalesced: a Join immediately followed by
// a Leave restarts the workers once, over the final topology.
func (j *Job) watchMembership(stop, signal <-chan struct{}) {
	defer j.reschedWg.Done()
	for {
		select {
		case <-stop:
			return
		case <-signal:
		drain:
			for {
				select {
				case <-signal:
				default:
					break drain
				}
			}
			// Failure ("job is not running") only means the job stopped
			// or crashed between the signal and now; the restart that
			// follows schedules over the current topology anyway.
			_, _ = j.Reschedule()
		}
	}
}

// Reschedule gracefully restarts the job's workers over the cluster's
// current live topology. It reuses the recovery path: workers stop where
// they stand, stateful instances restore from the latest committed
// snapshot (or promote standbys), sources rewind to that snapshot's
// offsets and replay — so a reschedule is exactly-once in the same sense
// a crash-recovery is. Returns the snapshot id recovered to.
func (j *Job) Reschedule() (int64, error) {
	ssid, err := j.InjectFailure()
	if err == nil {
		j.reschedules.Add(1)
	}
	return ssid, err
}

// Reschedules returns how many times the job has been rescheduled
// (membership-triggered or explicit), across its whole life.
func (j *Job) Reschedules() int64 { return j.reschedules.Load() }

func (j *Job) stateConfigFor(v *Vertex) core.Config {
	if v.StateOverride != nil {
		return *v.StateOverride
	}
	return j.cfg.State
}

// Manager returns the job's snapshot manager (registry + pruning).
func (j *Job) Manager() *core.Manager { return j.mgr }

// StatefulOperators returns the names of the job's stateful vertices, for
// catalog registration.
func (j *Job) StatefulOperators() []string {
	return append([]string(nil), j.statefulOps...)
}

// SnapshotPhase1 returns the histogram of phase-1 (prepare) latencies.
func (j *Job) SnapshotPhase1() *metrics.Histogram { return j.phase1Hist }

// SnapshotTotal returns the histogram of full 2PC (prepare+commit)
// latencies.
func (j *Job) SnapshotTotal() *metrics.Histogram { return j.totalHist }

// SourceMeter counts records emitted by all sources.
func (j *Job) SourceMeter() *metrics.Meter { return j.sourceOut }

// start builds channels, workers and sources and launches them. When
// restoreSSID > 0, stateful instances restore their state and sources
// rewind to the offsets captured by that snapshot before processing
// begins. With standby set, instances instead promote their active
// replicas and sources resume from their live offsets — the §VII
// read-committed failover (no rollback).
func (j *Job) start(restoreSSID int64, standby bool) {
	j.mu.Lock()
	defer j.mu.Unlock()

	j.killCh = make(chan struct{})
	j.ackCh = make(chan ack, j.acksNeeded)
	j.retiredCh = make(chan retireMsg, j.acksNeeded)
	// Sized so every drainer can deposit a few acknowledgements without
	// blocking even when no coordinator is waiting (stale ones are purged
	// at the next checkpoint).
	j.drainCh = make(chan drainMsg, 4*j.acksNeeded+4)
	j.manualCoord = nil
	j.workers = nil
	j.sources = nil

	vertices := j.dag.Vertices()
	nodesOf := map[string][]int{}
	inboxes := map[string][]chan item{}
	producers := map[string]int{}
	for _, v := range vertices {
		nodesOf[v.Name] = j.clu.ScheduleInstances(v.Parallelism)
		if v.Kind != KindSource {
			chans := make([]chan item, v.Parallelism)
			for i := range chans {
				chans[i] = make(chan item, j.cfg.ChannelCapacity)
			}
			inboxes[v.Name] = chans
		}
	}
	for _, e := range j.dag.Edges() {
		producers[e.To] += j.dag.vertices[e.From].Parallelism
	}

	// Output wiring per upstream instance: one edgeOut per out-edge.
	outsFor := func(name string, instance int) []*edgeOut {
		var outs []*edgeOut
		for ei, e := range j.dag.Edges() {
			if e.From != name {
				continue
			}
			outs = append(outs, &edgeOut{
				kind:    e.Kind,
				targets: inboxes[e.To],
				prod:    producerID{edge: ei, instance: instance},
			})
		}
		return outs
	}

	offsets := map[string]int64{}
	if restoreSSID > 0 && !standby {
		offsets = j.loadOffsets(restoreSSID)
	}

	for _, v := range vertices {
		for i := 0; i < v.Parallelism; i++ {
			node := nodesOf[v.Name][i]
			var backend *core.Backend
			if v.Stateful {
				// Fenced view: every mirror batch and snapshot write carries
				// the epoch of the partition table the instance believes in,
				// so a migration or failover reseating a partition rejects
				// the instance's stale writes instead of splitting ownership.
				backend = j.mgr.NewBackend(v.Name, i, j.clu.FencedNodeView(node), j.stateConfigFor(v))
				if reg := j.cfg.Metrics; reg != nil {
					id := fmt.Sprintf("%s/%d", v.Name, i)
					backend.SetInstruments(
						reg.Counter("operator", id, "state_updates"),
						reg.Histogram("operator", id, "state_update"))
				}
				par := v.Parallelism
				inst := i
				ownsKey := func(k partition.Key) bool {
					return routeKey(j.part, k, par) == inst
				}
				switch {
				case standby:
					if err := backend.PromoteStandby(ownsKey); err != nil {
						panic(fmt.Sprintf("dataflow: promote %s/%d: %v", v.Name, i, err))
					}
				case restoreSSID > 0:
					if err := backend.Restore(restoreSSID, ownsKey); err != nil {
						panic(fmt.Sprintf("dataflow: restore %s/%d: %v", v.Name, i, err))
					}
				}
			}
			if v.Kind == KindSource {
				src := v.NewSource(i, v.Parallelism)
				switch {
				case standby:
					src.Rewind(j.liveOffset(v.Name, i).Load())
				case restoreSSID > 0:
					src.Rewind(offsets[offsetKey(v.Name, i)])
				}
				sw := &sourceWorker{
					job:       j,
					vertex:    v.Name,
					instance:  i,
					node:      node,
					src:       src,
					outs:      outsFor(v.Name, i),
					barrierCh: make(chan int64, 4),
					killCh:    j.killCh,
					offset:    j.liveOffset(v.Name, i),
					wmPolicy:  v.Watermarks,
					ins:       j.opInstrumentsFor(v.Name, i, node, nil),
				}
				j.sources = append(j.sources, sw)
				continue
			}
			w := &worker{
				job:       j,
				vertex:    v.Name,
				instance:  i,
				node:      node,
				inbox:     inboxes[v.Name][i],
				producers: producers[v.Name],
				outs:      outsFor(v.Name, i),
				backend:   backend,
				killCh:    j.killCh,
				aligned:   make(map[producerID]bool),
				eos:       make(map[producerID]bool),
				ins:       j.opInstrumentsFor(v.Name, i, node, inboxes[v.Name][i]),
			}
			w.emitFn = w.emit
			if backend != nil {
				// Asynchronous phase 1: the worker pins at the barrier and
				// this drainer ships the pinned delta in the background.
				// Drainers live until the run's kill channel closes (not in
				// j.wg: a finite job's Wait must not hang on them).
				w.drain = &drainer{
					job: j, backend: backend,
					vertex: v.Name, instance: i, node: node,
					queue:   make(chan *core.SnapshotPin, 4),
					killCh:  j.killCh,
					drainCh: j.drainCh,
				}
				j.drainWg.Add(1)
				go w.drain.run()
			}
			w.proc = v.NewProcessor(ProcContext{
				Vertex:      v.Name,
				Instance:    i,
				Parallelism: v.Parallelism,
				State:       backend,
			})
			j.workers = append(j.workers, w)
		}
	}

	for _, w := range j.workers {
		j.wg.Add(1)
		go w.run()
	}
	for _, sw := range j.sources {
		j.wg.Add(1)
		go sw.run()
	}
	if j.cfg.SnapshotInterval > 0 {
		j.stopTick = make(chan struct{})
		j.coordTkr = time.NewTicker(j.cfg.SnapshotInterval)
		j.coordWg.Add(1)
		go j.coordinate(j.coordTkr.C, j.stopTick)
	}
	j.running = true
}

// Wait blocks until all workers have exited (finite sources drained, the
// job was stopped, or a failure was injected).
func (j *Job) Wait() { j.wg.Wait() }

// Stop terminates the job. In-flight records may be dropped; state already
// checkpointed remains queryable.
func (j *Job) Stop() {
	j.stopMembershipWatch()
	j.mu.Lock()
	if !j.running {
		j.mu.Unlock()
		return
	}
	j.running = false
	close(j.killCh)
	j.stopCoordinatorLocked()
	j.mu.Unlock()
	j.wg.Wait()
	j.drainWg.Wait()
	// A checkpoint the coordinator is mid-way through keeps writing to the
	// registry (and the persist directory) until it observes the kill; Stop
	// must not return while that is still in flight — callers are entitled
	// to tear down the persist directory the moment Stop returns.
	j.waitCoordinator()
}

// stopMembershipWatch deregisters the cluster listener and waits out the
// watcher goroutine (including a reschedule it may be mid-way through).
func (j *Job) stopMembershipWatch() {
	j.mu.Lock()
	stop := j.reschedStop
	if stop != nil {
		j.reschedStop = nil
		j.clu.RemoveMembershipListener(j.lisID)
	}
	j.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	j.reschedWg.Wait()
}

func (j *Job) stopCoordinatorLocked() {
	if j.coordTkr != nil {
		j.coordTkr.Stop()
		close(j.stopTick)
		j.coordTkr = nil
	}
}

func (j *Job) waitCoordinator() { j.coordWg.Wait() }

// Running reports whether the job's workers and coordinator are live —
// false after Stop or mid-crash-recovery. The HTTP health endpoint keys
// off it.
func (j *Job) Running() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.running
}

// noteCkptTrace registers the root span context of checkpoint ssid and
// prunes contexts more than a few ids old (snapshot ids are monotonic).
func (j *Job) noteCkptTrace(ssid int64, ctx trace.SpanContext) {
	j.ckptTraceMu.Lock()
	defer j.ckptTraceMu.Unlock()
	if j.ckptTraces == nil {
		j.ckptTraces = make(map[int64]trace.SpanContext)
	}
	j.ckptTraces[ssid] = ctx
	for id := range j.ckptTraces {
		if id <= ssid-8 {
			delete(j.ckptTraces, id)
		}
	}
}

// ckptTraceCtx looks up the trace context of checkpoint ssid.
func (j *Job) ckptTraceCtx(ssid int64) (trace.SpanContext, bool) {
	j.ckptTraceMu.Lock()
	defer j.ckptTraceMu.Unlock()
	ctx, ok := j.ckptTraces[ssid]
	return ctx, ok
}

// trackedCkptTraces reports how many checkpoint trace contexts are
// currently retained (tests assert the pruning bound holds under chaos).
func (j *Job) trackedCkptTraces() int {
	j.ckptTraceMu.Lock()
	defer j.ckptTraceMu.Unlock()
	return len(j.ckptTraces)
}

// liveOffset returns the shared live-offset cell of a source instance;
// the cell survives restarts so standby failover can resume from it.
func (j *Job) liveOffset(vertex string, instance int) *atomic.Int64 {
	key := offsetKey(vertex, instance)
	if v, ok := j.liveOffsets.Load(key); ok {
		return v.(*atomic.Int64)
	}
	v, _ := j.liveOffsets.LoadOrStore(key, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// offsetKey names one source instance in the offsets snapshot.
func offsetKey(vertex string, instance int) string {
	return fmt.Sprintf("%s/%d", vertex, instance)
}

func (j *Job) offsetsMapName() string { return "__offsets_" + j.cfg.Name }

func (j *Job) saveOffsets(ssid int64, offsets map[string]int64) {
	j.clu.Store().View(0).Put(j.offsetsMapName(), fmt.Sprintf("ss-%d", ssid), offsets)
}

func (j *Job) loadOffsets(ssid int64) map[string]int64 {
	v, ok := j.clu.Store().View(0).Get(j.offsetsMapName(), fmt.Sprintf("ss-%d", ssid))
	if !ok {
		return map[string]int64{}
	}
	return v.(map[string]int64)
}

func (j *Job) dropOffsets(ssids []int64) {
	for _, s := range ssids {
		j.clu.Store().View(0).Delete(j.offsetsMapName(), fmt.Sprintf("ss-%d", s))
	}
}
