// Package snapshot manages snapshot versions for a streaming job: which
// snapshot ids exist, which one is the latest *committed* one (the id
// queries resolve to by default), which ids are retained, and which must be
// pruned. The paper's default of keeping the two most recent versions —
// constant memory, always one version queryable while the next is in
// flight — is the default here too (§VI.A, "Snapshot Versions").
//
// A reader holds a lease on the id it reads (Hold, HoldLatest, Release)
// for as long as it reads, like a trace handle of Shared Arrangements: the
// store may forget only what no read at or above Floor — the oldest
// retained or held id — can reach, so a read whose id retires while it
// runs still reads that id.
package snapshot

import (
	"fmt"
	"slices"
	"sync"
)

// NoSnapshot is the id reported before any snapshot has committed.
const NoSnapshot int64 = 0

// DefaultRetention keeps the two most recent committed versions.
const DefaultRetention = 2

// Registry tracks the snapshot lifecycle of one job. All methods are safe
// for concurrent use; HoldLatest is the hot read path used by every
// snapshot query to resolve and lease "the latest snapshot id" atomically.
type Registry struct {
	mu         sync.RWMutex
	retention  int
	next       int64
	inProgress int64 // 0 when no checkpoint is running
	committed  []int64
	held       map[int64]int // leased id -> holds
}

// NewRegistry creates a registry retaining the given number of committed
// versions; retention < 1 is treated as DefaultRetention.
func NewRegistry(retention int) *Registry {
	if retention < 1 {
		retention = DefaultRetention
	}
	return &Registry{retention: retention, next: 1}
}

// Retention returns the configured number of retained versions.
func (r *Registry) Retention() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.retention
}

// Begin starts a new checkpoint and returns its snapshot id. It fails if a
// checkpoint is already in progress — like Jet, the coordinator skips a
// checkpoint tick rather than running two concurrently.
func (r *Registry) Begin() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inProgress != 0 {
		return 0, fmt.Errorf("snapshot: checkpoint %d still in progress", r.inProgress)
	}
	id := r.next
	r.next++
	r.inProgress = id
	return id, nil
}

// InProgress returns the id of the running checkpoint, or 0 if none.
func (r *Registry) InProgress() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.inProgress
}

// Commit atomically publishes ssid as the latest committed snapshot and
// returns the ids evicted by the retention policy (to be pruned from the
// state store). Committing an id that is not the in-progress checkpoint
// fails and leaves the registry as it was.
func (r *Registry) Commit(ssid int64) (evicted []int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inProgress != ssid {
		return nil, fmt.Errorf("snapshot: commit of %d but %d is in progress", ssid, r.inProgress)
	}
	r.inProgress = 0
	r.committed = append(r.committed, ssid)
	for len(r.committed) > r.retention {
		evicted = append(evicted, r.committed[0])
		r.committed = r.committed[1:]
	}
	return evicted, nil
}

// Abort cancels the in-progress checkpoint (e.g. the job failed mid-2PC).
// Aborting when nothing is in progress is a no-op.
func (r *Registry) Abort(ssid int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inProgress == ssid {
		r.inProgress = 0
	}
}

// LatestCommitted returns the id of the latest committed snapshot, or
// NoSnapshot if none has committed yet. This is the id implied when a
// query does not pin an explicit ssid.
func (r *Registry) LatestCommitted() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.committed) == 0 {
		return NoSnapshot
	}
	return r.committed[len(r.committed)-1]
}

// Committed returns the retained committed ids, oldest first.
func (r *Registry) Committed() []int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int64, len(r.committed))
	copy(out, r.committed)
	return out
}

// IsQueryable reports whether ssid is a committed, retained snapshot that a
// query may pin. The answer may be stale by the time it is used: a reader
// takes Hold instead, which checks and leases in one step.
func (r *Registry) IsQueryable(ssid int64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Contains(r.committed, ssid)
}

// Hold leases ssid for a reader and reports whether it could: only a
// committed, retained id can be held. The check and the hold happen under
// one lock, so no commit can evict ssid between them; once held, ssid
// keeps Floor at or below it until Release.
func (r *Registry) Hold(ssid int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !slices.Contains(r.committed, ssid) {
		return false
	}
	r.hold(ssid)
	return true
}

// HoldLatest leases the latest committed id and returns it, or returns
// NoSnapshot, holding nothing, before any commit.
func (r *Registry) HoldLatest() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.committed) == 0 {
		return NoSnapshot
	}
	id := r.committed[len(r.committed)-1]
	r.hold(id)
	return id
}

func (r *Registry) hold(ssid int64) {
	if r.held == nil {
		r.held = make(map[int64]int)
	}
	r.held[ssid]++
}

// Release drops one hold on ssid taken by Hold or HoldLatest. Releasing an
// id that is not held does nothing.
func (r *Registry) Release(ssid int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch n := r.held[ssid]; {
	case n > 1:
		r.held[ssid] = n - 1
	case n == 1:
		delete(r.held, ssid)
	}
}

// Floor returns the least snapshot id a read may still need: the oldest
// retained id, or the oldest held id when that is older. NoSnapshot before
// any commit. Snapshot state below the floor that no read at or above it
// reaches may be dropped.
func (r *Registry) Floor() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.committed) == 0 {
		return NoSnapshot
	}
	floor := r.committed[0]
	for id := range r.held {
		floor = min(floor, id)
	}
	return floor
}

// Seed initializes a fresh registry with externally committed snapshot
// ids (ascending) — the cold-start path when snapshots are imported from
// stable storage. Seeding a registry that has already issued ids fails.
func (r *Registry) Seed(ids []int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next != 1 || len(r.committed) != 0 || r.inProgress != 0 {
		return fmt.Errorf("snapshot: Seed on a registry already in use")
	}
	var last int64
	for _, id := range ids {
		if id <= last {
			return fmt.Errorf("snapshot: Seed ids must be ascending and positive, got %v", ids)
		}
		last = id
	}
	if len(ids) > r.retention {
		ids = ids[len(ids)-r.retention:]
	}
	r.committed = append(r.committed, ids...)
	if len(ids) > 0 {
		r.next = ids[len(ids)-1] + 1
	}
	return nil
}

// OldestRetained returns the oldest retained committed id, or NoSnapshot.
func (r *Registry) OldestRetained() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.committed) == 0 {
		return NoSnapshot
	}
	return r.committed[0]
}
