package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"squery/internal/kv"
	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/wire"
)

// Config selects which state representations S-QUERY maintains for an
// operator. The paper evaluates all combinations in Figure 8: live+snap,
// live only, snap only, and neither (plain Jet).
type Config struct {
	// Live mirrors every state update into the live map <op>.
	Live bool
	// Snapshots writes queryable per-key snapshot entries into
	// snapshot_<op> at every checkpoint.
	Snapshots bool
	// Incremental writes only the keys changed since the previous
	// checkpoint instead of the full state (§VI.A, incremental
	// snapshots). Only meaningful when Snapshots is true.
	Incremental bool
	// JetBlob is the baseline: checkpoints serialize each instance's
	// whole state as one opaque blob, the way Jet snapshots state
	// without S-QUERY. Mutually exclusive with Snapshots.
	JetBlob bool
	// LatencySampleEvery samples 1-in-N state-update latencies into the
	// update-latency histogram (the update counter stays exact). 0
	// selects the default of 8; 1 times every update. Lowering it buys
	// finer tail visibility for stopwatch cost on the hot path.
	LatencySampleEvery int
	// LatencySampleSeed offsets the deterministic sampling sequence.
	// Sampling is a pure function of (seed, update index), so two runs
	// with the same seed and workload sample the same updates — what
	// keeps chaos-soak latency output reproducible run to run.
	LatencySampleSeed int64
	// ActiveStandby maintains a synchronously updated replica of every
	// instance's state (§VII, read committed): on failure the replica is
	// promoted instead of rolling back to the last checkpoint, so live
	// queries never observe state regressing — the high-availability
	// setup the paper describes for raising live queries to the read
	// committed isolation level.
	ActiveStandby bool
}

// mirrorBatch is how many live-map mirror operations buffer before an
// automatic flush to the KV store — one partition-grouped batch instead of
// one message per record, and the batch size kv.smallBatch groups on the
// stack. The owning worker flushes at inbox quiescence and checkpoint
// boundaries regardless, so live queries see up-to-date state whenever the
// operator is idle.
const mirrorBatch = 32

// LiveMapName returns the KV map holding the operator's live state. The
// convention is the paper's: the map is named after the operator, with
// spaces removed ("stateful map" -> "statefulmap", §V.B).
func LiveMapName(op string) string { return sanitize(op) }

// SnapshotMapName returns the KV map holding the operator's snapshot
// state: snapshot_<operator>.
func SnapshotMapName(op string) string { return "snapshot_" + sanitize(op) }

// blobMapName is the internal (unqueryable) map for Jet-style blob
// snapshots.
func blobMapName(op string) string { return "__jetsnap_" + sanitize(op) }

// standbyMapName is the internal map holding the active-standby replica.
func standbyMapName(op string) string { return "__standby_" + sanitize(op) }

// StateMapNames returns every map holding state of the operator: the
// live, snapshot, active-standby and blob maps.
func StateMapNames(op string) []string {
	return []string{LiveMapName(op), SnapshotMapName(op), standbyMapName(op), blobMapName(op)}
}

func sanitize(op string) string {
	return strings.ToLower(strings.ReplaceAll(op, " ", ""))
}

// Backend is the state store of one parallel instance of a stateful
// operator. The instance owns a disjoint set of partitions — p with
// p % parallelism == instance, the rule the dataflow routes keys by — so
// the backend is single-writer by construction. With Config.Live set, the
// instance's state is its partitions of the live map <op>: every key has
// one copy, the one queries read and standing queries are fed from.
// Writes queue in a write-behind batch of mirrorBatch operations, and Get
// reads that batch before the map, so the instance always sees its own
// writes. Without Live, the state is a private Go map — the plain Jet
// state that Figure 8's "S-Query snap" and "Jet" series measure against.
type Backend struct {
	op       string
	instance int
	par      int // operator parallelism; 1 owns every partition
	view     kv.NodeView
	cfg      Config

	live  *kv.Map                  // the live map <op> when Live is set, else nil
	data  map[string]kv.Entry      // the state when Live is off, else nil
	dirty map[string]partition.Key // keys touched since the last checkpoint

	// pending is a Live backend's write-behind batch: live-map operations
	// not yet applied, in order (a batch applies exactly like the same
	// puts/deletes one by one), with their keys' canonical strings at the
	// same index of pendingKS. It flushes at mirrorBatch.
	pending   []kv.Op
	pendingKS []string

	// Optional instruments (nil = disabled): update/delete count and
	// latency, including the mirrored KV writes and their simulated
	// network cost. The latency histogram is sampled 1-in-8 (the counter
	// stays exact) to keep the per-record stopwatch cost off the hot
	// path; updateSeq drives the sampling from the single processing
	// goroutine. The rate comes from Config.LatencySampleEvery and the
	// sequence's phase from Config.LatencySampleSeed.
	updates     *metrics.Counter
	updateLat   *metrics.Histogram
	updateSeq   uint64
	sampleEvery uint64

	// horizon returns the oldest retained snapshot id and the last durable
	// one — what a merge of the snapshot runs may drop and fold (see
	// runSet.plan). A backend made by Manager.NewBackend reads them from
	// its manager; one that stands alone prunes nothing and has no
	// persister to wait for.
	horizon func() (oldest, durable int64)
}

// NewBackend creates the state backend for instance `instance` of
// operator `op`, issuing KV operations from the node of view. A backend
// made here stands alone and owns every partition; a backend whose
// snapshots a Manager commits comes from Manager.NewBackend instead, which
// also gives it its share of the partitions.
func NewBackend(op string, instance int, view kv.NodeView, cfg Config) *Backend {
	return newBackend(op, instance, 1, view, cfg)
}

func newBackend(op string, instance, par int, view kv.NodeView, cfg Config) *Backend {
	if cfg.JetBlob && cfg.Snapshots {
		panic("core: JetBlob and Snapshots are mutually exclusive")
	}
	every := uint64(8)
	if cfg.LatencySampleEvery > 0 {
		every = uint64(cfg.LatencySampleEvery)
	}
	b := &Backend{
		op:       op,
		instance: instance,
		par:      par,
		view:     view,
		cfg:      cfg,
		dirty:    make(map[string]partition.Key),
		// Seeding offsets the sampling phase deterministically: which
		// updates get timed depends only on (seed, update index).
		updateSeq:   uint64(cfg.LatencySampleSeed) % every,
		sampleEvery: every,
		horizon:     func() (int64, int64) { return 0, math.MaxInt64 },
	}
	if cfg.Live {
		b.live = view.Store().GetMap(LiveMapName(op))
	} else {
		b.data = make(map[string]kv.Entry)
	}
	return b
}

// eachPart calls fn for every partition the instance owns, ascending,
// until fn returns false.
func (b *Backend) eachPart(fn func(p int) bool) {
	n := b.view.Store().Partitioner().Count()
	for p := b.instance % b.par; p < n; p += b.par {
		if !fn(p) {
			return
		}
	}
}

// owns reports whether partition p is one of the instance's.
func (b *Backend) owns(p int) bool { return p%b.par == b.instance%b.par }

// SetInstruments installs the backend's state-update counter and latency
// histogram (both may be nil to disable). Call before the owning worker
// starts; the instruments are read from the single processing goroutine.
func (b *Backend) SetInstruments(updates *metrics.Counter, updateLat *metrics.Histogram) {
	b.updates = updates
	b.updateLat = updateLat
}

// Op returns the operator name.
func (b *Backend) Op() string { return b.op }

// Instance returns the instance index.
func (b *Backend) Instance() int { return b.instance }

// Get returns the instance's state for key: the newest write-behind
// operation on it, else the live map's entry — or, without Live, the
// private map's.
func (b *Backend) Get(key partition.Key) (any, bool) {
	return b.lookup(key, partition.KeyString(key))
}

// lookup is Get for a key whose canonical string ks is already known.
func (b *Backend) lookup(key partition.Key, ks string) (any, bool) {
	if b.live == nil {
		e, ok := b.data[ks]
		return e.Value, ok
	}
	for i := len(b.pendingKS) - 1; i >= 0; i-- {
		if b.pendingKS[i] == ks {
			op := b.pending[i]
			return op.Value, !op.Delete
		}
	}
	e, ok := b.live.Peek(b.live.PartitionOf(key), ks)
	return e.Value, ok
}

// Update sets the state for key. With Live set it queues the put in the
// write-behind batch; the flush applies it to the live map under the key's
// partition lock (the KV store holds one lock per partition, shared by
// every map's segment of it, which orders the write against concurrent
// query reads of the partition).
func (b *Backend) Update(key partition.Key, value any) {
	if b.updateLat == nil {
		b.update(key, value)
		return
	}
	b.updates.Inc()
	b.updateSeq++
	if b.updateSeq%b.sampleEvery != 0 {
		b.update(key, value)
		return
	}
	sw := metrics.StartStopwatch()
	b.update(key, value)
	b.updateLat.Record(sw.Elapsed())
}

func (b *Backend) update(key partition.Key, value any) {
	ks := partition.KeyString(key)
	b.dirty[ks] = key
	if b.live != nil {
		b.mirror(ks, kv.Op{Key: key, Value: value})
	} else {
		b.data[ks] = kv.Entry{Key: key, Value: value}
	}
	if b.cfg.ActiveStandby {
		// The standby replica stays synchronous per record: promotion
		// must see exactly the primary's state at the instant of failure,
		// with no buffered tail (§VII's read-committed failover).
		b.view.Put(standbyMapName(b.op), key, value)
	}
}

// Delete removes the state for key.
func (b *Backend) Delete(key partition.Key) {
	if b.updateLat == nil {
		b.del(key)
		return
	}
	b.updates.Inc()
	b.updateSeq++
	if b.updateSeq%b.sampleEvery != 0 {
		b.del(key)
		return
	}
	sw := metrics.StartStopwatch()
	b.del(key)
	b.updateLat.Record(sw.Elapsed())
}

func (b *Backend) del(key partition.Key) {
	ks := partition.KeyString(key)
	b.dirty[ks] = key
	if b.live != nil {
		b.mirror(ks, kv.Op{Key: key, Delete: true})
	} else {
		delete(b.data, ks)
	}
	if b.cfg.ActiveStandby {
		b.view.Delete(standbyMapName(b.op), key)
	}
}

// mirror queues one live-map operation, flushing when the batch fills.
func (b *Backend) mirror(ks string, op kv.Op) {
	b.pending = append(b.pending, op)
	b.pendingKS = append(b.pendingKS, ks)
	if len(b.pending) >= mirrorBatch {
		b.Flush()
	}
}

// Flush applies the write-behind batch to the live map as one
// partition-grouped batch. The owning worker calls it when its inbox
// drains and before every checkpoint pin, so live queries see the
// instance's state whenever it is idle; Restore and PromoteStandby drop
// the batch instead, since it belongs to the state they replace.
func (b *Backend) Flush() {
	if len(b.pending) == 0 {
		return
	}
	b.view.PutBatch(b.live.Name(), b.pending)
	b.pending, b.pendingKS = b.pending[:0], b.pendingKS[:0]
}

// Size returns the number of keys held by this instance.
func (b *Backend) Size() int {
	if b.live == nil {
		return len(b.data)
	}
	b.Flush()
	n := 0
	b.eachPart(func(p int) bool {
		size, _, _ := b.live.Sample(p)
		n += size
		return true
	})
	return n
}

// ForEach visits every key-value pair of the instance's state. With Live
// set it visits a point-in-time copy of one owned partition at a time, so
// fn may update the state it is handed.
func (b *Backend) ForEach(fn func(key partition.Key, value any) bool) {
	if b.live == nil {
		for _, e := range b.data {
			if !fn(e.Key, e.Value) {
				return
			}
		}
		return
	}
	b.Flush()
	more := true
	b.eachPart(func(p int) bool {
		b.live.ScanPartition(p, func(e kv.Entry) bool {
			more = fn(e.Key, e.Value)
			return more
		})
		return more
	})
}

// SnapshotPrepare runs phase 1 of the checkpoint for this instance to
// completion on the caller's goroutine: pin, then drain. It records the
// instance's state at snapshot id ssid into the state store and returns
// the number of snapshot entries written (a Jet blob is not one). Full mode
// writes every key; incremental mode writes only keys dirtied since the
// previous checkpoint (including deletions, as tombstones).
func (b *Backend) SnapshotPrepare(ssid int64) (written int, err error) {
	pin, err := b.SnapshotPin(ssid)
	if pin == nil || err != nil {
		return 0, err
	}
	return b.DrainPin(pin), nil
}

type keyedVersion struct {
	key       partition.Key
	value     any
	tombstone bool
}

// SnapshotPin is the cheap half of an asynchronous phase 1 (Carbone et
// al.'s lightweight snapshots): the version set an instance pinned at
// the barrier, captured without serializing or shipping anything. A
// drainer later writes it into the snapshot store via DrainPin, off the
// barrier path. Values referenced by a pin are treated as immutable —
// the same convention that makes snapshot runs safe to share with
// concurrent queries.
type SnapshotPin struct {
	SSID    int64
	entries []keyedVersion
	pinned  time.Time
}

// Len returns how many key versions the pin holds.
func (p *SnapshotPin) Len() int { return len(p.entries) }

// PinnedAt returns when the pin was taken; drain lag is measured from
// it.
func (p *SnapshotPin) PinnedAt() time.Time { return p.pinned }

// SnapshotPin captures phase 1 for this instance without shipping the
// state: mirrors are flushed (the snapshot must include every mirrored
// update, and a query at this ssid must not see the live map lag it), the
// dirty set (or full state) is pinned as a version set, and the dirty
// tracking resets — all O(delta) map work, no KV writes. The returned pin
// must later be drained via DrainPin before the checkpoint commits. A nil
// pin with no error means nothing needs draining: snapshots are off, or the
// instance runs the JetBlob baseline, whose blob is written synchronously
// here (measuring that stall is the baseline's purpose).
func (b *Backend) SnapshotPin(ssid int64) (*SnapshotPin, error) {
	b.Flush()
	switch {
	case b.cfg.JetBlob:
		return nil, b.prepareBlob(ssid)
	case !b.cfg.Snapshots:
		return nil, nil
	}
	var entries []keyedVersion
	if b.cfg.Incremental {
		entries = b.dirtyEntries()
	} else {
		// A full snapshot rewrites every live key — but keys deleted since
		// the previous checkpoint still need tombstones, or a query at this
		// ssid would resolve them through their stale older version.
		entries = append(b.allEntries(), b.deletedEntries()...)
	}
	b.dirty = make(map[string]partition.Key)
	return &SnapshotPin{SSID: ssid, entries: entries, pinned: time.Now()}, nil
}

// DrainPin writes a pinned version set into the snapshot store — the
// deferred half of phase 1: the pin's versions are grouped by partition
// and sorted into one run per partition outside any lock, and each run is
// swapped in under its partition's write lock. The drain then merges the
// runs of every owned partition that is due (runSet.plan). Safe to call
// from a drainer goroutine concurrent with the owning worker: pinned
// values are immutable, and the pin's entries are no longer referenced by
// the backend.
func (b *Backend) DrainPin(pin *SnapshotPin) int {
	name := SnapshotMapName(b.op)
	store := b.view.Store()
	if len(pin.entries) == 0 && !store.HasMap(name) {
		return 0
	}
	m := store.GetMap(name)
	writeRuns(func(int) kv.NodeView { return b.view }, m, pin.SSID, pin.entries)
	b.compact(m)
	return len(pin.entries)
}

// writeRuns writes versions at ssid into the snapshot map m as one new run
// per partition p they touch, through view(p): one round trip per remote
// partition group. Within a partition a key listed twice keeps its last
// version.
func writeRuns(view func(p int) kv.NodeView, m *kv.Map, ssid int64, kvs []keyedVersion) {
	if len(kvs) == 0 {
		return
	}
	part := m.Store().Partitioner()
	count := part.Count()
	rows := make([]runRow, len(kvs))
	parts := make([]int, len(kvs))
	starts := make([]int, count+1)
	for i, e := range kvs {
		ks := partition.KeyString(e.key)
		h := hashKey(ks)
		// A string key is its own canonical string, so its partition
		// (partition.Of: the key's hash modulo the count) is at hand.
		if _, ok := e.key.(string); ok {
			parts[i] = int(h % uint64(count))
		} else {
			parts[i] = part.Of(e.key)
		}
		starts[parts[i]+1]++
		rows[i] = runRow{hash: h, key: e.key, ks: ks, ssid: ssid, tomb: e.tombstone, val: e.value}
	}
	for p := 1; p <= count; p++ {
		starts[p] += starts[p-1]
	}
	byPart := make([]runRow, len(rows))
	next := append([]int(nil), starts[:count]...)
	for i, p := range parts {
		byPart[next[p]] = rows[i]
		next[p]++
	}
	ixs := m.Indexes()
	for p := 0; p < count; p++ {
		g := byPart[starts[p]:starts[p+1]]
		if len(g) == 0 {
			continue
		}
		slices.SortStableFunc(g, func(a, b runRow) int {
			if c := cmp.Compare(a.hash, b.hash); c != 0 {
				return c
			}
			return strings.Compare(a.ks, b.ks)
		})
		g = dedupLast(g)
		r := newRun(g, ixs)
		keys, all := rowSizes(g)
		view(p).SwapFrozen(m.Name(), p, len(g), keys, all, func(cur kv.Frozen) (kv.Frozen, bool) {
			return asRuns(cur).with(r), true
		})
	}
}

// dedupLast drops all but the last of each run of rows with one key.
func dedupLast(g []runRow) []runRow {
	out := g[:0]
	for i := range g {
		if i+1 < len(g) && g[i+1].hash == g[i].hash && g[i+1].ks == g[i].ks {
			continue
		}
		out = append(out, g[i])
	}
	return out
}

// Compact runs every merge the instance's partitions of its snapshot map
// are due — what a drain does after writing its runs, for a drainer to run
// after a commit moved the retention window and the durable id. Safe to
// call from the goroutine that drains the instance's pins.
func (b *Backend) Compact() {
	name := SnapshotMapName(b.op)
	if b.cfg.Snapshots && b.view.Store().HasMap(name) {
		b.compact(b.view.Store().GetMap(name))
	}
}

// compact runs every merge the instance's partitions of the snapshot map
// m are due, off the commit path. A merge is computed outside the lock
// and swapped in only if the partition still holds the runs it merged.
func (b *Backend) compact(m *kv.Map) {
	oldest, durable := b.horizon()
	ixs := m.Indexes()
	b.eachPart(func(p int) bool {
		at, ws, ok := asRuns(m.PeekFrozen(p)).plan(oldest, durable)
		if !ok {
			return true
		}
		merged, dropped := mergeRuns(ws, oldest, at == 0, ixs)
		b.view.SwapFrozen(m.Name(), p, 0, nil, nil, func(cur kv.Frozen) (kv.Frozen, bool) {
			return asRuns(cur).replaced(at, ws, merged, dropped)
		})
		return true
	})
}

// FoldPins merges an abandoned pin (its checkpoint round aborted before
// the drain ran) into a newer round's pin. The carried entries were
// already cleared from the backend's dirty tracking when they were
// pinned, so dropping them would lose every pre-barrier update from the
// next committed snapshot — they must ride the next drain instead,
// re-stamped at its snapshot id. Where both pins touch a key, the newer
// version wins.
func FoldPins(carry, next *SnapshotPin) *SnapshotPin {
	if carry == nil {
		return next
	}
	if next == nil {
		return carry
	}
	seen := make(map[string]bool, len(next.entries))
	for _, e := range next.entries {
		seen[partition.KeyString(e.key)] = true
	}
	merged := make([]keyedVersion, 0, len(carry.entries)+len(next.entries))
	for _, e := range carry.entries {
		if !seen[partition.KeyString(e.key)] {
			merged = append(merged, e)
		}
	}
	merged = append(merged, next.entries...)
	return &SnapshotPin{SSID: next.SSID, entries: merged, pinned: next.pinned}
}

func (b *Backend) allEntries() []keyedVersion {
	out := make([]keyedVersion, 0, b.Size())
	b.ForEach(func(key partition.Key, value any) bool {
		out = append(out, keyedVersion{key: key, value: value})
		return true
	})
	return out
}

func (b *Backend) dirtyEntries() []keyedVersion {
	out := make([]keyedVersion, 0, len(b.dirty))
	for ks, key := range b.dirty {
		if v, ok := b.lookup(key, ks); ok {
			out = append(out, keyedVersion{key: key, value: v})
		} else {
			// Key was deleted since the last checkpoint; the tombstone
			// must live under the original key so it lands in (and
			// shadows) the key's earlier versions.
			out = append(out, keyedVersion{key: key, tombstone: true})
		}
	}
	return out
}

// deletedEntries returns tombstones for keys deleted since the last
// checkpoint.
func (b *Backend) deletedEntries() []keyedVersion {
	var out []keyedVersion
	for ks, key := range b.dirty {
		if _, ok := b.lookup(key, ks); !ok {
			out = append(out, keyedVersion{key: key, tombstone: true})
		}
	}
	return out
}

// blobKey addresses one instance's blob for one snapshot. Append-based:
// the single allocation is the final string conversion, not fmt's boxing
// and formatting — this key is built once per instance per checkpoint.
func blobKey(instance int, ssid int64) string {
	buf := make([]byte, 0, 32)
	buf = append(buf, "inst-"...)
	buf = strconv.AppendInt(buf, int64(instance), 10)
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, ssid, 10)
	return string(buf)
}

// blobMagic prefixes wire-encoded blob snapshots. A blob is one
// wire.Stream, so it carries the definition of each struct type it holds.
var blobMagic = []byte("SQWB\x01")

func (b *Backend) prepareBlob(ssid int64) error {
	n := b.Size()
	buf := make([]byte, 0, 64+24*n)
	buf = append(buf, blobMagic...)
	buf = wire.AppendUvarint(buf, uint64(n))
	var st wire.Stream
	var err error
	b.ForEach(func(key partition.Key, value any) bool {
		if buf, err = st.AppendValue(buf, key); err == nil {
			buf, err = st.AppendValue(buf, value)
		}
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("core: encoding blob snapshot of %s/%d: %w", b.op, b.instance, err)
	}
	b.view.Put(blobMapName(b.op), blobKey(b.instance, ssid), buf)
	b.dirty = make(map[string]partition.Key)
	return nil
}

// Restore rebuilds the instance's state from snapshot ssid, reading only
// the instance's own partitions of snapshot_<op> (or its own blob in the
// JetBlob baseline). With Live set each owned partition of the live map is
// replaced wholesale by its restored contents: keys written after the
// checkpoint are the dirty reads of Figure 5 and go, and standing queries
// are handed only the keys that differ.
func (b *Backend) Restore(ssid int64) error {
	if b.cfg.JetBlob {
		parts, err := b.readBlob(ssid)
		if err != nil {
			return err
		}
		b.reset(func(p int) map[string]kv.Entry { return parts[p] })
		return nil
	}
	snap := b.view.Store().GetMap(SnapshotMapName(b.op))
	b.reset(b.readParts(func(p int) map[string]kv.Entry {
		out := make(map[string]kv.Entry)
		asRuns(snap.Frozen(p, false)).each(ssid, func(r *run, i int) bool {
			out[r.ks(i)] = kv.Entry{Key: r.keys[i], Value: r.vals[i]}
			return true
		})
		return out
	}))
	return nil
}

// readBlob decodes the instance's blob of snapshot ssid into the entries
// of each owned partition. No blob means the instance had no state then.
func (b *Backend) readBlob(ssid int64) (map[int]map[string]kv.Entry, error) {
	parts := make(map[int]map[string]kv.Entry)
	raw, ok := b.view.Get(blobMapName(b.op), blobKey(b.instance, ssid))
	if !ok {
		return parts, nil
	}
	bs := raw.([]byte)
	if !bytes.HasPrefix(bs, blobMagic) {
		return nil, fmt.Errorf("core: decoding blob snapshot of %s/%d: bad magic", b.op, b.instance)
	}
	bs = bs[len(blobMagic):]
	n, used := binary.Uvarint(bs)
	if used <= 0 {
		return nil, fmt.Errorf("core: decoding blob snapshot of %s/%d: truncated entry count", b.op, b.instance)
	}
	bs = bs[used:]
	part := b.view.Store().Partitioner()
	var err error
	for i := uint64(0); i < n; i++ {
		var k, v any
		if k, bs, err = wire.DecodeValue(bs); err != nil {
			return nil, fmt.Errorf("core: decoding blob snapshot of %s/%d: %w", b.op, b.instance, err)
		}
		if v, bs, err = wire.DecodeValue(bs); err != nil {
			return nil, fmt.Errorf("core: decoding blob snapshot of %s/%d: %w", b.op, b.instance, err)
		}
		p := part.Of(k)
		if !b.owns(p) {
			continue
		}
		if parts[p] == nil {
			parts[p] = make(map[string]kv.Entry)
		}
		parts[p][partition.KeyString(k)] = kv.Entry{Key: k, Value: v}
	}
	return parts, nil
}

// PromoteStandby rebuilds the instance's state from its own partitions of
// the active-standby replica — the failover path of §VII's read-committed
// setup. Unlike Restore there is no rollback: the replica was updated
// synchronously with the primary, so the promoted state is exactly the
// primary's state at the moment of failure. The keys changed since the
// last pin went with the failed primary's dirty set, so with Snapshots set
// every owned key whose promoted value differs from its newest snapshot
// version is marked dirty again, and every key the snapshot holds and the
// replica lacks is marked for a tombstone: the next snapshot then carries
// every change the failover kept.
func (b *Backend) PromoteStandby() error {
	if !b.cfg.ActiveStandby {
		return fmt.Errorf("core: operator %q has no active standby", b.op)
	}
	standby := b.view.Store().GetMap(standbyMapName(b.op))
	snapName := SnapshotMapName(b.op)
	var snap *kv.Map
	if b.cfg.Snapshots && b.view.Store().HasMap(snapName) {
		snap = b.view.Store().GetMap(snapName)
	}
	b.reset(b.readParts(func(p int) map[string]kv.Entry {
		entries := make(map[string]kv.Entry)
		standby.ScanPartition(p, func(e kv.Entry) bool {
			entries[partition.KeyString(e.Key)] = e
			return true
		})
		if snap != nil {
			b.markChanged(asRuns(snap.PeekFrozen(p)), entries)
		}
		return entries
	}))
	return nil
}

// markChanged files as dirty every key of a promoted partition's entries
// whose value differs from its newest version in the partition's snapshot
// runs rs, and every key rs holds that entries lacks.
func (b *Backend) markChanged(rs *runSet, entries map[string]kv.Entry) {
	for ks, e := range entries {
		r, i := rs.governing(hashKey(ks), ks, math.MaxInt64)
		if i < 0 || r.tombstone(i) || !reflect.DeepEqual(r.vals[i], e.Value) {
			b.dirty[ks] = e.Key
		}
	}
	rs.each(math.MaxInt64, func(r *run, i int) bool {
		if ks := r.ks(i); !hasEntry(entries, ks) {
			b.dirty[ks] = r.keys[i]
		}
		return true
	})
}

func hasEntry(entries map[string]kv.Entry, ks string) bool {
	_, ok := entries[ks]
	return ok
}

// reset replaces the instance's state with read(p) for every owned
// partition p (nil reads as empty). With Live set each partition goes to
// the live map through kv's wholesale replacement; otherwise the private
// map is rebuilt. The dirty set and the write-behind batch are dropped
// before the first read: they belong to the state being replaced.
func (b *Backend) reset(read func(p int) map[string]kv.Entry) {
	b.dirty = make(map[string]partition.Key)
	b.pending, b.pendingKS = b.pending[:0], b.pendingKS[:0]
	if b.live == nil {
		b.data = make(map[string]kv.Entry)
	}
	b.eachPart(func(p int) bool {
		entries := read(p)
		if b.live == nil {
			for ks, e := range entries {
				b.data[ks] = e
			}
			return true
		}
		if entries == nil {
			entries = make(map[string]kv.Entry)
		}
		b.view.ResetPartition(b.live.Name(), p, entries)
		return true
	})
}

// readParts returns reset's reader: partition p reads as read(p), charging
// one hop when p lives on another node than the instance's.
func (b *Backend) readParts(read func(p int) map[string]kv.Entry) func(p int) map[string]kv.Entry {
	return func(p int) map[string]kv.Entry {
		if owner := b.view.Store().Assignment().Owner(p); owner != b.view.Node() {
			b.view.ChargeHop(owner)
		}
		return read(p)
	}
}
