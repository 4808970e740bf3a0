package core

import (
	"fmt"
	"math"

	"squery/internal/kv"
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
// base. The delta window is computed from the snapshot runs, not the
// backends' in-memory dirty sets — runs survive aborted checkpoint rounds
// (a version written at an aborted id still governs later reads), so the
// durable delta never loses a key to an abort between commits; and since
// no merge folds a run above the last durable id, the window's versions
// sit in the few runs drained since, and collecting them is O(delta).
// The persisted chains are bounded: when one would grow past deltaChainCap, or the
// delta stops being small relative to the live state (compactRatio), the
// commit folds everything into a fresh full segment instead (compaction)
// and the chain restarts.

const (
	// deltaChainCap is how many delta segments may chain off a full base
	// before a commit folds them into a new full segment.
	deltaChainCap = 8
	// compactRatio folds to a full segment when the delta holds at least
	// this fraction of the operator's keys — at that size the delta stops
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
	durable := int64(math.MaxInt64)
	if p != nil {
		durable, _ = p.Latest()
	}
	m.durable.Store(durable)
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
		return nil
	}
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
		deltas := deltaWindow(snapMap, lastDurable, ssid)

		full := pol.FullOnly || lastDurable == 0 || !baseOps[op]
		chainLen := 0
		if !full {
			chainLen, err = p.ChainLen(lastDurable, op)
			if err != nil {
				return err
			}
			// Compaction triggers: the chain is at its length cap, or the
			// delta is no longer small relative to the live state. Size
			// counts keys, including tombstoned ones — a slight overcount
			// of the live set that only delays the trigger marginally.
			if chainLen >= deltaChainCap || float64(len(deltas)) >= compactRatio*float64(snapMap.Size()) {
				full = true
				info.Compactions++
			}
		}
		if full {
			entries := make([]persist.Entry, 0, snapMap.Size())
			for part := 0; part < m.store.Partitioner().Count(); part++ {
				asRuns(snapMap.PeekFrozen(part)).each(ssid, func(r *run, i int) bool {
					entries = append(entries, persist.Entry{Key: r.keys[i], Value: r.vals[i]})
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
	m.durable.Store(ssid)
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

// ownerView returns the view of partition p's owner: the manager's own
// writes are local work, like a drain's.
func (m *Manager) ownerView(p int) kv.NodeView {
	return m.store.View(m.store.Assignment().Owner(p))
}

// deltaWindow collects the delta window (lastDurable, ssid] of a snapshot
// map — every key whose version governing reads at ssid was minted after
// the last durable snapshot, tombstones included — from the runs of each
// partition that hold a version above lastDurable.
func deltaWindow(snapMap *kv.Map, lastDurable, ssid int64) []persist.DeltaEntry {
	var deltas []persist.DeltaEntry
	var seen map[string]struct{}
	for part := 0; part < snapMap.Store().Partitioner().Count(); part++ {
		rs := asRuns(snapMap.PeekFrozen(part))
		if rs == nil {
			continue
		}
		var recent []*run
		for _, r := range rs.runs {
			if r.hi > lastDurable && r.lo <= ssid {
				recent = append(recent, r)
			}
		}
		if len(recent) > 1 {
			clear(seen)
			if seen == nil {
				seen = make(map[string]struct{})
			}
		}
		for _, r := range recent {
			for i := 0; i < r.len(); i = r.groupEnd(i) {
				ks := r.ks(i)
				if len(recent) > 1 {
					if _, dup := seen[ks]; dup {
						continue
					}
					seen[ks] = struct{}{}
				}
				g, gi := rs.governing(r.hash[i], ks, ssid)
				if gi < 0 || g.ssid(gi) <= lastDurable {
					continue
				}
				deltas = append(deltas, persist.DeltaEntry{Key: g.keys[gi], Value: g.vals[gi], Tombstone: g.tombstone(gi)})
			}
		}
	}
	return deltas
}

// ImportPersisted cold-starts the manager's registry and snapshot maps
// from the latest snapshot in stable storage, replaying base + delta
// chain when the snapshot was persisted incrementally: each operator's
// state becomes one run per partition at the imported id. It must be
// called on a fresh manager, with the target operators already registered,
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
	for _, op := range ops {
		entries, err := p.ReadState(latest, op)
		if err != nil {
			return 0, err
		}
		kvs := make([]keyedVersion, len(entries))
		for i, e := range entries {
			kvs[i] = keyedVersion{key: e.Key, value: e.Value}
		}
		writeRuns(m.ownerView, m.store.GetMap(SnapshotMapName(op)), latest, kvs)
	}
	if err := m.reg.Seed([]int64{latest}); err != nil {
		return 0, fmt.Errorf("core: importing persisted snapshot: %w", err)
	}
	return latest, nil
}
