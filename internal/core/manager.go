package core

import (
	"errors"
	"fmt"
	"sync"

	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/persist"
	"squery/internal/snapshot"
)

// OperatorMeta describes one stateful operator whose state S-QUERY manages.
type OperatorMeta struct {
	Name        string
	Parallelism int
	Config      Config
}

// Manager owns the snapshot lifecycle of one job: the version registry,
// the atomic publication of the latest committed id, and the pruning of
// evicted versions from the state store. The dataflow checkpoint
// coordinator drives it: Begin → (operators prepare) → Commit.
type Manager struct {
	store *kv.Store
	reg   *snapshot.Registry

	mu            sync.Mutex
	ops           map[string]OperatorMeta
	persister     *persist.Store
	persistPolicy PersistPolicy
	lastPersist   PersistInfo

	// Changed-key index: every snapshot-chain write of a backend this
	// manager made (see NewBackend) is reported here, so commit-time work —
	// collecting the persisted delta and compacting version chains — walks
	// just the keys that changed, never whole maps. `changed` holds keys
	// not yet persisted durably; `pruneDue` holds keys whose chains may
	// still compact further.
	changeMu sync.Mutex
	changed  map[string]map[string]partition.Key
	pruneDue map[string]map[string]partition.Key
}

// NewManager creates a manager over the store retaining `retention`
// committed snapshot versions (<1 selects the paper's default of 2).
func NewManager(store *kv.Store, retention int) *Manager {
	return &Manager{
		store:    store,
		reg:      snapshot.NewRegistry(retention),
		ops:      make(map[string]OperatorMeta),
		changed:  make(map[string]map[string]partition.Key),
		pruneDue: make(map[string]map[string]partition.Key),
	}
}

// NewBackend creates the state backend of one instance of an operator
// whose snapshots this manager commits. It is the one place a backend is
// tied to the changed-key index: Commit persists and prunes only keys
// reported to it, so a backend writing snapshot chains under this manager
// must be made here. The backend owns the instance's share of the
// partitions by the registered parallelism (all of them for an operator
// not registered).
func (m *Manager) NewBackend(op string, instance int, view kv.NodeView, cfg Config) *Backend {
	par := 1
	m.mu.Lock()
	if meta, ok := m.ops[sanitize(op)]; ok {
		par = meta.Parallelism
	}
	m.mu.Unlock()
	b := newBackend(op, instance, par, view, cfg)
	b.onChange = m.noteChanged
	return b
}

// noteChanged records that snapshot-chain versions were written for keys
// of op — the commit-side half of O(delta) checkpoints.
func (m *Manager) noteChanged(op string, keys []partition.Key) {
	if len(keys) == 0 {
		return
	}
	so := sanitize(op)
	m.changeMu.Lock()
	defer m.changeMu.Unlock()
	cm := m.changed[so]
	if cm == nil {
		cm = make(map[string]partition.Key, len(keys))
		m.changed[so] = cm
	}
	pm := m.pruneDue[so]
	if pm == nil {
		pm = make(map[string]partition.Key, len(keys))
		m.pruneDue[so] = pm
	}
	for _, k := range keys {
		ks := partition.KeyString(k)
		cm[ks] = k
		pm[ks] = k
	}
}

// takeChanged removes and returns op's not-yet-durable key set.
func (m *Manager) takeChanged(op string) map[string]partition.Key {
	m.changeMu.Lock()
	defer m.changeMu.Unlock()
	out := m.changed[op]
	delete(m.changed, op)
	return out
}

// mergeChanged re-files keys whose chains were not fully covered by the
// snapshot just persisted (versions beyond the cut). Writes noted since
// takeChanged win.
func (m *Manager) mergeChanged(op string, keys map[string]partition.Key) {
	if len(keys) == 0 {
		return
	}
	m.changeMu.Lock()
	defer m.changeMu.Unlock()
	cm := m.changed[op]
	if cm == nil {
		m.changed[op] = keys
		return
	}
	for ks, k := range keys {
		if _, ok := cm[ks]; !ok {
			cm[ks] = k
		}
	}
}

// takePruneDue removes and returns op's may-compact-further key set.
func (m *Manager) takePruneDue(op string) map[string]partition.Key {
	m.changeMu.Lock()
	defer m.changeMu.Unlock()
	out := m.pruneDue[op]
	delete(m.pruneDue, op)
	return out
}

// mergePruneDue re-files keys whose chains still hold more than their
// stable base version.
func (m *Manager) mergePruneDue(op string, keys map[string]partition.Key) {
	if len(keys) == 0 {
		return
	}
	m.changeMu.Lock()
	defer m.changeMu.Unlock()
	pm := m.pruneDue[op]
	if pm == nil {
		m.pruneDue[op] = keys
		return
	}
	for ks, k := range keys {
		if _, ok := pm[ks]; !ok {
			pm[ks] = k
		}
	}
}

// dropChanged empties the whole not-yet-durable index — called when no
// persister is attached, so the index cannot grow without a consumer.
func (m *Manager) dropChanged() {
	m.changeMu.Lock()
	defer m.changeMu.Unlock()
	for op := range m.changed {
		delete(m.changed, op)
	}
}

// Registry exposes the snapshot version registry.
func (m *Manager) Registry() *snapshot.Registry { return m.reg }

// RegisterOperator records a stateful operator. Names must be unique: the
// operator name is the SQL table name (§V.B).
func (m *Manager) RegisterOperator(meta OperatorMeta) error {
	if meta.Name == "" {
		return fmt.Errorf("core: operator name must not be empty")
	}
	if meta.Parallelism < 1 {
		return fmt.Errorf("core: operator %q has parallelism %d", meta.Name, meta.Parallelism)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := sanitize(meta.Name)
	if _, dup := m.ops[key]; dup {
		return fmt.Errorf("core: duplicate stateful operator name %q", meta.Name)
	}
	m.ops[key] = meta
	return nil
}

// Operators returns the registered operators.
func (m *Manager) Operators() []OperatorMeta {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]OperatorMeta, 0, len(m.ops))
	for _, meta := range m.ops {
		out = append(out, meta)
	}
	return out
}

// Begin starts a checkpoint, returning its snapshot id.
func (m *Manager) Begin() (int64, error) { return m.reg.Begin() }

// Abort cancels an in-flight checkpoint after a failure.
func (m *Manager) Abort(ssid int64) { m.reg.Abort(ssid) }

// ErrPruneFailed marks a Commit error raised after publication: the
// snapshot is committed, durable and queryable, but stable storage could
// not drop the snapshots it evicted (they are collected by a later prune).
var ErrPruneFailed = errors.New("core: pruning persisted snapshots failed")

// Commit atomically publishes ssid as the latest committed snapshot
// (phase 2 of the paper's 2PC) and prunes versions evicted by the
// retention policy from every registered operator's snapshot state. It
// returns the evicted ids. When the durable copy cannot be written the
// error is returned with nothing published — the caller aborts the id, and
// the keys the commit would have persisted stay filed for the next one. An
// error wrapping ErrPruneFailed is the one failure after publication.
func (m *Manager) Commit(ssid int64) ([]int64, error) {
	// Stable storage first: once the registry publishes the id, queries
	// may rely on it, so the durable copy must already exist.
	if err := m.persistCommitted(ssid); err != nil {
		return nil, fmt.Errorf("core: persisting snapshot %d: %w", ssid, err)
	}
	evicted := m.reg.Commit(ssid)
	if len(evicted) > 0 {
		m.prune(evicted)
		m.mu.Lock()
		p := m.persister
		m.mu.Unlock()
		if p != nil {
			if err := p.Prune(evicted); err != nil {
				return evicted, fmt.Errorf("%w: %w", ErrPruneFailed, err)
			}
		}
	}
	return evicted, nil
}

// prune removes evicted snapshot versions. Chains are compacted against
// the oldest retained id (keeping one base version per key); blob
// snapshots are deleted outright. All writes are issued from the owning
// node — pruning, like snapshotting, is local work — and the walk is
// O(delta): it visits the chains the changed-key index filed.
func (m *Manager) prune(evicted []int64) {
	oldest := m.reg.OldestRetained()
	m.mu.Lock()
	ops := make([]OperatorMeta, 0, len(m.ops))
	for _, meta := range m.ops {
		ops = append(ops, meta)
	}
	m.mu.Unlock()

	assign := m.store.Assignment()
	for _, meta := range ops {
		if meta.Config.JetBlob {
			for inst := 0; inst < meta.Parallelism; inst++ {
				for _, ev := range evicted {
					key := blobKey(inst, ev)
					owner := assign.Owner(m.store.Partitioner().Of(key))
					m.store.View(owner).Delete(blobMapName(meta.Name), key)
				}
			}
			continue
		}
		if !meta.Config.Snapshots {
			continue
		}
		name := SnapshotMapName(meta.Name)
		if !m.store.HasMap(name) {
			continue
		}
		// Only chains written since the last prune can have anything left
		// to compact — untouched chains were already reduced to a stable
		// base (or hold a single version pruning would keep anyway).
		op := sanitize(meta.Name)
		idx := m.takePruneDue(op)
		keep := make(map[string]partition.Key)
		for ks, key := range idx {
			view := m.store.View(assign.Owner(m.store.Partitioner().Of(key)))
			cur, ok := view.Get(name, key)
			if !ok {
				continue
			}
			chain := cur.(*Chain)
			if pruned := chain.Prune(oldest); pruned != chain {
				if pruned.Len() == 0 {
					view.Delete(name, key)
				} else {
					view.Put(name, key, pruned)
				}
				chain = pruned
			}
			// A chain is stable — no future prune changes it — once it
			// holds just one version at or below the horizon; everything
			// else stays filed for the next pass.
			if chain.Len() > 1 {
				keep[ks] = key
			} else if nw, ok := chain.Newest(); ok && nw.SSID > oldest {
				keep[ks] = key
			}
		}
		m.mergePruneDue(op, keep)
	}
}
