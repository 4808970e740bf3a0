package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"squery/internal/kv"
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
// the atomic publication of the latest committed id, and the retention
// window and durable horizon its backends' snapshot merges obey. The dataflow checkpoint
// coordinator drives it: Begin → (operators prepare) → Commit.
type Manager struct {
	store *kv.Store
	reg   *snapshot.Registry

	mu            sync.Mutex
	ops           map[string]OperatorMeta
	persister     *persist.Store
	persistPolicy PersistPolicy
	lastPersist   PersistInfo

	// durable is the last snapshot id stable storage holds while a
	// persister is attached, MaxInt64 otherwise: snapshot runs above it
	// stay unmerged until it reaches them (runSet.plan), so a persisted
	// commit finds its delta in runs of its own.
	durable atomic.Int64
}

// NewManager creates a manager over the store retaining `retention`
// committed snapshot versions (<1 selects the paper's default of 2).
func NewManager(store *kv.Store, retention int) *Manager {
	m := &Manager{
		store: store,
		reg:   snapshot.NewRegistry(retention),
		ops:   make(map[string]OperatorMeta),
	}
	m.durable.Store(math.MaxInt64)
	return m
}

// NewBackend creates the state backend of one instance of an operator
// whose snapshots this manager commits. Its drains merge snapshot runs
// against the manager's retention window and durable horizon, so a
// backend writing snapshots under this manager must be made here. The
// backend owns the instance's share of the partitions by the registered
// parallelism (all of them for an operator not registered).
func (m *Manager) NewBackend(op string, instance int, view kv.NodeView, cfg Config) *Backend {
	par := 1
	m.mu.Lock()
	if meta, ok := m.ops[sanitize(op)]; ok {
		par = meta.Parallelism
	}
	m.mu.Unlock()
	b := newBackend(op, instance, par, view, cfg)
	b.horizon = m.horizon
	b.reg = m.reg
	return b
}

// horizon returns the registry's floor — the oldest id still retained or
// held by a reader — and the durable id.
func (m *Manager) horizon() (floor, durable int64) {
	return m.reg.Floor(), m.durable.Load()
}

// Registry exposes the snapshot version registry.
func (m *Manager) Registry() *snapshot.Registry { return m.reg }

// RegisterOperator records a stateful operator. Names must be unique: the
// operator name is the SQL table name (§V.B). A configuration no backend
// can honour is refused here, before any instance runs.
func (m *Manager) RegisterOperator(meta OperatorMeta) error {
	if meta.Name == "" {
		return fmt.Errorf("core: operator name must not be empty")
	}
	if meta.Parallelism < 1 {
		return fmt.Errorf("core: operator %q has parallelism %d", meta.Name, meta.Parallelism)
	}
	if err := meta.Config.validate(); err != nil {
		return fmt.Errorf("core: operator %q: %w", meta.Name, err)
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

// Abort cancels the in-flight checkpoint ssid after a failure and drops
// the Jet-baseline blobs its instances wrote: no restore reads them.
func (m *Manager) Abort(ssid int64) {
	m.reg.Abort(ssid)
	m.prune([]int64{ssid})
}

// ErrPruneFailed marks a Commit error raised after publication: the
// snapshot is committed, durable and queryable, but stable storage could
// not drop the snapshots it evicted (they are collected by a later prune).
var ErrPruneFailed = errors.New("core: pruning persisted snapshots failed")

// Commit atomically publishes ssid as the latest committed snapshot
// (phase 2 of the paper's 2PC) and drops the Jet-baseline blobs and the
// persisted snapshots the retention policy evicts. It returns the evicted
// ids. When the durable copy cannot be written the error is returned with
// nothing published — the caller aborts the id, and the versions the
// commit would have persisted stay in unmerged runs for the next one. An
// error wrapping ErrPruneFailed is the one failure after publication.
// Committing an id that is not the one in progress fails with nothing
// persisted or published.
func (m *Manager) Commit(ssid int64) ([]int64, error) {
	if cur := m.reg.InProgress(); cur != ssid {
		return nil, fmt.Errorf("core: commit of snapshot %d but %d is in progress", ssid, cur)
	}
	// Stable storage first: once the registry publishes the id, queries
	// may rely on it, so the durable copy must already exist.
	if err := m.persistCommitted(ssid); err != nil {
		return nil, fmt.Errorf("core: persisting snapshot %d: %w", ssid, err)
	}
	evicted, err := m.reg.Commit(ssid)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
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

// prune deletes the Jet-baseline blobs of evicted or aborted snapshot
// ids. Snapshot runs need no pass here: the drains merge them against the
// retention window, off the commit path. All writes are issued from the
// owning node.
func (m *Manager) prune(evicted []int64) {
	m.mu.Lock()
	ops := make([]OperatorMeta, 0, len(m.ops))
	for _, meta := range m.ops {
		ops = append(ops, meta)
	}
	m.mu.Unlock()

	assign := m.store.Assignment()
	for _, meta := range ops {
		if !meta.Config.JetBlob {
			continue
		}
		for inst := 0; inst < meta.Parallelism; inst++ {
			for _, ev := range evicted {
				key := blobKey(inst, ev)
				owner := assign.Owner(m.store.Partitioner().Of(key))
				m.store.View(owner).Delete(blobMapName(meta.Name), key)
			}
		}
	}
}
