package core

import (
	"fmt"

	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/persist"
)

// Persistence integration: when a persister is attached, every committed
// checkpoint is also written to stable storage, and a fresh manager can
// cold-start from the latest durable snapshot — the paper's stable-
// storage requirement (§IV) implemented on top of internal/persist.
//
// Snapshots persist incrementally: each commit writes, per operator, a
// delta segment holding only the versions minted since the last durable
// snapshot (upserts and tombstones), chained to that snapshot as its
// base. The delta window is computed from the version chains, not the
// backends' in-memory dirty sets — chains survive aborted checkpoint
// rounds (a version written at an aborted id still governs later reads),
// so the durable delta never loses a key to an abort between commits.
// The chains are bounded: when one would grow past deltaChainCap, or the
// delta stops being small relative to the live state (compactRatio), the
// commit folds everything into a fresh full segment instead (compaction)
// and the chain restarts.

const (
	// deltaChainCap is how many delta segments may chain off a full base
	// before a commit folds them into a new full segment.
	deltaChainCap = 8
	// compactRatio folds to a full segment when the delta holds at least
	// this fraction of the operator's chains — at that size the delta stops
	// being cheaper than a compacting full write.
	compactRatio = 0.5
)

// PersistPolicy tunes the full-vs-delta decision of persisted commits.
type PersistPolicy struct {
	// FullOnly disables delta segments entirely: every persisted commit
	// writes full segments. It is the reference the incremental path is
	// held to (TestIncrementalRecoveryParity, `squery-bench -exp
	// ckpt-scale`'s full arm).
	FullOnly bool
}

// PersistInfo describes what the most recent persisted commit wrote —
// the coordinator surfaces it through sys.checkpoints and the metrics
// registry.
type PersistInfo struct {
	SSID        int64
	Mode        string // "delta", "full", "mixed", or "none"
	Entries     int    // entries written across all segments
	Bytes       int64  // bytes written by this commit
	DeltaSegs   int    // delta segments written by this commit
	FullSegs    int    // full segments written by this commit
	ChainLen    int    // longest delta chain after this commit
	Compactions int    // chains folded into a full segment by policy
}

// SetPersister attaches stable storage. Subsequent Commit calls write
// every queryable operator's changes at the committed snapshot id to
// disk before pruning; unreachable snapshot directories are garbage-
// collected as ids are evicted. Commits are O(delta): only versions
// minted since the last durable snapshot are written (full segments only
// at the chain base and at compaction points).
func (m *Manager) SetPersister(p *persist.Store) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persister = p
}

// SetPersistPolicy overrides the full-vs-delta policy for persisted
// commits. Call before the first commit.
func (m *Manager) SetPersistPolicy(pol PersistPolicy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persistPolicy = pol
}

// Persister returns the attached stable store (nil when persistence is
// off).
func (m *Manager) Persister() *persist.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.persister
}

// LastPersist returns what the most recent persisted commit wrote. The
// zero value means no commit has persisted yet (or persistence is off).
func (m *Manager) LastPersist() PersistInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastPersist
}

// persistCommitted writes the state of every queryable operator at ssid
// to stable storage — as delta segments where the policy allows — and
// durably commits the id.
func (m *Manager) persistCommitted(ssid int64) (err error) {
	m.mu.Lock()
	p := m.persister
	pol := m.persistPolicy
	ops := make([]OperatorMeta, 0, len(m.ops))
	for _, meta := range m.ops {
		ops = append(ops, meta)
	}
	m.mu.Unlock()
	if p == nil {
		// No consumer for the not-yet-durable index: drop it, or it would
		// accumulate every key ever snapshotted.
		m.dropChanged()
		return nil
	}
	// Key sets taken off the changed-key index below are durable only
	// once the manifest commits: on any failure they are filed back, or
	// the next successful delta would silently lack them.
	taken := make(map[string]map[string]partition.Key)
	defer func() {
		if err != nil {
			for op, idx := range taken {
				m.mergeChanged(op, idx)
			}
		}
	}()
	statsBefore := p.Stats()
	lastDurable, err := p.Latest()
	if err != nil {
		return err
	}
	// Operators present at the base snapshot: a delta can only chain to a
	// base that actually holds a segment for the operator.
	baseOps := map[string]bool{}
	if lastDurable > 0 {
		names, err := p.Operators(lastDurable)
		if err != nil {
			return err
		}
		for _, n := range names {
			baseOps[n] = true
		}
	}
	info := PersistInfo{SSID: ssid, Mode: "none"}
	for _, meta := range ops {
		if !meta.Config.Snapshots {
			continue
		}
		name := SnapshotMapName(meta.Name)
		if !m.store.HasMap(name) {
			continue
		}
		op := sanitize(meta.Name)
		snapMap := m.store.GetMap(name)

		// Collect the delta window (lastDurable, ssid] — every version
		// minted since the last durable snapshot, tombstones included — by
		// walking the keys written since the last durable commit.
		idx := m.takeChanged(op)
		taken[op] = idx
		deltas := make([]persist.DeltaEntry, 0, len(idx))
		carry := make(map[string]partition.Key)
		assign := m.store.Assignment()
		for ks, key := range idx {
			cur, ok := m.store.View(assign.Owner(m.store.Partitioner().Of(key))).Get(name, key)
			if !ok {
				continue
			}
			chain := cur.(*Chain)
			// Versions beyond this cut are not made durable here; the
			// key stays filed for the next commit.
			if nw, ok := chain.Newest(); ok && nw.SSID > ssid {
				carry[ks] = key
			}
			v, ok := chain.Governing(ssid)
			if !ok || v.SSID <= lastDurable {
				continue
			}
			deltas = append(deltas, persist.DeltaEntry{Key: key, Value: v.Value, Tombstone: v.Tombstone})
		}
		m.mergeChanged(op, carry)

		full := pol.FullOnly || lastDurable == 0 || !baseOps[op]
		chainLen := 0
		if !full {
			chainLen, err = p.ChainLen(lastDurable, op)
			if err != nil {
				return err
			}
			// Compaction triggers: the chain is at its length cap, or the
			// delta is no longer small relative to the live state. Size
			// counts chains, including pure-tombstone ones — a slight
			// overcount of the live set that only delays the trigger
			// marginally.
			if chainLen >= deltaChainCap || float64(len(deltas)) >= compactRatio*float64(snapMap.Size()) {
				full = true
				info.Compactions++
			}
		}
		if full {
			entries := make([]persist.Entry, 0, snapMap.Size())
			for part := 0; part < m.store.Partitioner().Count(); part++ {
				snapMap.ScanPartition(part, func(e kv.Entry) bool {
					if v, ok := e.Value.(*Chain).At(ssid); ok {
						entries = append(entries, persist.Entry{Key: e.Key, Value: v.Value})
					}
					return true
				})
			}
			if err := p.WriteSegment(ssid, op, entries); err != nil {
				return err
			}
			info.FullSegs++
			info.Entries += len(entries)
		} else {
			if err := p.WriteDeltaSegment(ssid, op, lastDurable, deltas); err != nil {
				return err
			}
			info.DeltaSegs++
			info.Entries += len(deltas)
			if chainLen+1 > info.ChainLen {
				info.ChainLen = chainLen + 1
			}
		}
	}
	if err := p.Commit(ssid); err != nil {
		return err
	}
	switch {
	case info.DeltaSegs > 0 && info.FullSegs > 0:
		info.Mode = "mixed"
	case info.DeltaSegs > 0:
		info.Mode = "delta"
	case info.FullSegs > 0:
		info.Mode = "full"
	}
	info.Bytes = p.Stats().BytesWritten - statsBefore.BytesWritten
	m.mu.Lock()
	m.lastPersist = info
	m.mu.Unlock()
	return nil
}

// ImportPersisted cold-starts the manager's registry and snapshot maps
// from the latest snapshot in stable storage, replaying base + delta
// chain when the snapshot was persisted incrementally. It must be called
// on a fresh manager, with the target operators already registered,
// before any checkpoint runs. It returns the imported snapshot id (0
// when the store is empty).
func (m *Manager) ImportPersisted(p *persist.Store) (int64, error) {
	latest, err := p.Latest()
	if err != nil {
		return 0, err
	}
	if latest == 0 {
		return 0, nil
	}
	ops, err := p.Operators(latest)
	if err != nil {
		return 0, err
	}
	assign := m.store.Assignment()
	for _, op := range ops {
		entries, err := p.ReadState(latest, op)
		if err != nil {
			return 0, err
		}
		name := SnapshotMapName(op)
		for _, e := range entries {
			owner := assign.Owner(m.store.Partitioner().Of(e.Key))
			view := m.store.View(owner)
			var chain *Chain
			if cur, ok := view.Get(name, e.Key); ok {
				chain = cur.(*Chain)
			}
			view.Put(name, e.Key, chain.With(Versioned{SSID: latest, Value: e.Value}))
		}
	}
	if err := m.reg.Seed([]int64{latest}); err != nil {
		return 0, fmt.Errorf("core: importing persisted snapshot: %w", err)
	}
	return latest, nil
}
