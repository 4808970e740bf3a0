package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

func sanitize(op string) string {
	return strings.ToLower(strings.ReplaceAll(op, " ", ""))
}

// entry is one key's live state inside a Backend.
type entry struct {
	key   partition.Key
	value any
}

// Backend is the state store of one parallel instance of a stateful
// operator. The instance owns a disjoint set of keys (its partitions), so
// the backend is single-writer by construction; reads from the query side
// never touch it — they go to the KV maps it mirrors into.
type Backend struct {
	op       string
	instance int
	view     kv.NodeView
	cfg      Config

	data  map[string]entry
	dirty map[string]partition.Key // keys touched since the last checkpoint

	// pending buffers live-map mirror operations between flushes (order
	// preserved: a batch applies exactly like the same puts/deletes one
	// by one); it flushes at mirrorBatch.
	pending []kv.Op

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

	// onChange is told about every snapshot-chain write: the changed-key
	// index of the manager that made this backend (Manager.NewBackend), nil
	// for a backend that stands alone.
	onChange func(op string, keys []partition.Key)
}

// NewBackend creates the state backend for instance `instance` of
// operator `op`, issuing KV operations from the node of view. A backend
// whose snapshots a Manager commits comes from Manager.NewBackend instead.
func NewBackend(op string, instance int, view kv.NodeView, cfg Config) *Backend {
	if cfg.JetBlob && cfg.Snapshots {
		panic("core: JetBlob and Snapshots are mutually exclusive")
	}
	every := uint64(8)
	if cfg.LatencySampleEvery > 0 {
		every = uint64(cfg.LatencySampleEvery)
	}
	return &Backend{
		op:       op,
		instance: instance,
		view:     view,
		cfg:      cfg,
		data:     make(map[string]entry),
		dirty:    make(map[string]partition.Key),
		// Seeding offsets the sampling phase deterministically: which
		// updates get timed depends only on (seed, update index).
		updateSeq:   uint64(cfg.LatencySampleSeed) % every,
		sampleEvery: every,
	}
}

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

// Get returns the instance-local state for key.
func (b *Backend) Get(key partition.Key) (any, bool) {
	e, ok := b.data[partition.KeyString(key)]
	if !ok {
		return nil, false
	}
	return e.value, true
}

// Update sets the state for key and, when live state is enabled, mirrors
// it into the live map under the key's partition lock (the KV store holds
// one lock per partition, shared by every map's segment of it, which
// orders this write against concurrent query reads of the partition).
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
	b.data[ks] = entry{key: key, value: value}
	b.dirty[ks] = key
	if b.cfg.Live {
		b.mirror(kv.Op{Key: key, Value: value})
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
	delete(b.data, ks)
	b.dirty[ks] = key
	if b.cfg.Live {
		b.mirror(kv.Op{Key: key, Delete: true})
	}
	if b.cfg.ActiveStandby {
		b.view.Delete(standbyMapName(b.op), key)
	}
}

// mirror queues one live-map operation, flushing when the batch fills.
func (b *Backend) mirror(op kv.Op) {
	b.pending = append(b.pending, op)
	if len(b.pending) >= mirrorBatch {
		b.Flush()
	}
}

// Flush writes any buffered live-map mirror operations as one
// partition-grouped batch. The owning worker calls it when its inbox
// drains and before every checkpoint prepare; Restore and PromoteStandby
// discard the buffer instead (resetLive rewrites the map wholesale).
func (b *Backend) Flush() {
	if len(b.pending) == 0 {
		return
	}
	b.view.PutBatch(LiveMapName(b.op), b.pending)
	b.pending = b.pending[:0]
}

// Size returns the number of keys held by this instance.
func (b *Backend) Size() int { return len(b.data) }

// ForEach visits every key-value pair of the instance's state.
func (b *Backend) ForEach(fn func(key partition.Key, value any) bool) {
	for _, e := range b.data {
		if !fn(e.key, e.value) {
			return
		}
	}
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
// the same convention that makes version chains safe to share with
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

// DrainPin serializes and ships a pinned version set into the snapshot
// store — the deferred half of phase 1. Safe to call from a
// drainer goroutine concurrent with the owning worker: the KV store's
// partition locks order the writes, pinned values are immutable, and
// the pin's entries are no longer referenced by the backend.
func (b *Backend) DrainPin(pin *SnapshotPin) int {
	return b.writeVersions(pin.SSID, pin.entries)
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
	out := make([]keyedVersion, 0, len(b.data))
	for _, e := range b.data {
		out = append(out, keyedVersion{key: e.key, value: e.value})
	}
	return out
}

func (b *Backend) dirtyEntries() []keyedVersion {
	out := make([]keyedVersion, 0, len(b.dirty))
	for ks, key := range b.dirty {
		if e, ok := b.data[ks]; ok {
			out = append(out, keyedVersion{key: e.key, value: e.value})
		} else {
			// Key was deleted since the last checkpoint; the tombstone
			// must live under the original key so it lands in (and
			// shadows) the same chain as earlier versions.
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
		if _, ok := b.data[ks]; !ok {
			out = append(out, keyedVersion{key: key, tombstone: true})
		}
	}
	return out
}

func (b *Backend) writeVersions(ssid int64, kvs []keyedVersion) int {
	if len(kvs) == 0 {
		return 0
	}
	name := SnapshotMapName(b.op)
	keys := make([]partition.Key, len(kvs))
	for i := range kvs {
		keys[i] = kvs[i].key
	}
	// The chain extension runs where the partition lives: one round trip
	// per remote partition group, not a Get and a Put per key.
	b.view.ApplyBatch(name, keys, func(i int, _ partition.Key, cur any, ok bool) (any, bool) {
		var chain *Chain
		if ok {
			chain = cur.(*Chain)
		}
		e := kvs[i]
		return chain.With(Versioned{SSID: ssid, Value: e.value, Tombstone: e.tombstone}), true
	})
	if b.onChange != nil {
		b.onChange(b.op, keys)
	}
	return len(kvs)
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
	buf := make([]byte, 0, 64+24*len(b.data))
	buf = append(buf, blobMagic...)
	buf = wire.AppendUvarint(buf, uint64(len(b.data)))
	var st wire.Stream
	var err error
	for _, e := range b.data {
		if buf, err = st.AppendValue(buf, e.key); err != nil {
			return fmt.Errorf("core: encoding blob snapshot of %s/%d: %w", b.op, b.instance, err)
		}
		if buf, err = st.AppendValue(buf, e.value); err != nil {
			return fmt.Errorf("core: encoding blob snapshot of %s/%d: %w", b.op, b.instance, err)
		}
	}
	b.view.Put(blobMapName(b.op), blobKey(b.instance, ssid), buf)
	b.dirty = make(map[string]partition.Key)
	return nil
}

// Restore rebuilds the instance's state from snapshot ssid, keeping only
// keys this instance owns according to ownsKey (recovery may reshuffle
// instances, so ownership is decided by the router, not by what the
// instance held before the failure). Live state is re-mirrored so queries
// do not observe rolled-back keys as still live.
func (b *Backend) Restore(ssid int64, ownsKey func(partition.Key) bool) error {
	b.data = make(map[string]entry)
	b.dirty = make(map[string]partition.Key)
	// Mirror operations buffered before the failure belong to rolled-back
	// state; resetLive rewrites the live map from the restored data.
	b.pending = b.pending[:0]
	if b.cfg.JetBlob {
		if err := b.restoreBlob(ssid, ownsKey); err != nil {
			return err
		}
	} else {
		b.view.Scan(SnapshotMapName(b.op), func(e kv.Entry) bool {
			if !ownsKey(e.Key) {
				return true
			}
			if v, ok := e.Value.(*Chain).At(ssid); ok {
				b.data[partition.KeyString(e.Key)] = entry{key: e.Key, value: v.Value}
			}
			return true
		})
	}
	if b.cfg.Live {
		b.resetLive(ownsKey)
	}
	return nil
}

func (b *Backend) restoreBlob(ssid int64, ownsKey func(partition.Key) bool) error {
	raw, ok := b.view.Get(blobMapName(b.op), blobKey(b.instance, ssid))
	if !ok {
		// No blob means the instance had no state at that snapshot.
		return nil
	}
	bs := raw.([]byte)
	if !bytes.HasPrefix(bs, blobMagic) {
		return fmt.Errorf("core: decoding blob snapshot of %s/%d: bad magic", b.op, b.instance)
	}
	bs = bs[len(blobMagic):]
	n, used := binary.Uvarint(bs)
	if used <= 0 {
		return fmt.Errorf("core: decoding blob snapshot of %s/%d: truncated entry count", b.op, b.instance)
	}
	bs = bs[used:]
	var err error
	for i := uint64(0); i < n; i++ {
		var k, v any
		if k, bs, err = wire.DecodeValue(bs); err != nil {
			return fmt.Errorf("core: decoding blob snapshot of %s/%d: %w", b.op, b.instance, err)
		}
		if v, bs, err = wire.DecodeValue(bs); err != nil {
			return fmt.Errorf("core: decoding blob snapshot of %s/%d: %w", b.op, b.instance, err)
		}
		if ownsKey(k) {
			b.data[partition.KeyString(k)] = entry{key: k, value: v}
		}
	}
	return nil
}

// PromoteStandby rebuilds the instance's state from the active-standby
// replica — the failover path of §VII's read-committed setup. Unlike
// Restore there is no rollback: the replica was updated synchronously
// with the primary, so the promoted state is exactly the primary's state
// at the moment of failure. Live state is re-mirrored for consistency.
func (b *Backend) PromoteStandby(ownsKey func(partition.Key) bool) error {
	if !b.cfg.ActiveStandby {
		return fmt.Errorf("core: operator %q has no active standby", b.op)
	}
	b.data = make(map[string]entry)
	b.dirty = make(map[string]partition.Key)
	b.pending = b.pending[:0]
	b.view.Scan(standbyMapName(b.op), func(e kv.Entry) bool {
		if ownsKey(e.Key) {
			b.data[partition.KeyString(e.Key)] = entry{key: e.Key, value: e.Value}
		}
		return true
	})
	if b.cfg.Live {
		b.resetLive(ownsKey)
	}
	return nil
}

// resetLive replaces this instance's keys in the live map with the
// restored state. Keys that existed live but not in the snapshot must be
// removed — they are the dirty reads of Figure 5. Only keys this instance
// owns are touched; sibling instances reset theirs.
func (b *Backend) resetLive(ownsKey func(partition.Key) bool) {
	name := LiveMapName(b.op)
	ops := make([]kv.Op, 0, len(b.data))
	b.view.Scan(name, func(e kv.Entry) bool {
		ks := partition.KeyString(e.Key)
		if _, ok := b.data[ks]; !ok && ownsKey(e.Key) {
			ops = append(ops, kv.Op{Key: e.Key, Delete: true})
		}
		return true
	})
	for _, e := range b.data {
		ops = append(ops, kv.Op{Key: e.key, Value: e.value})
	}
	b.view.PutBatch(name, ops)
}
