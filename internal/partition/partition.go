// Package partition implements the hash-partitioning scheme shared by the
// KV store and the dataflow runtime. Sharing one partitioner is the
// co-location contract at the heart of S-QUERY (§II of the paper): because
// streams and state are split with the same function, the scheduler can
// place an operator instance on the node that owns its state partitions,
// and every live-state update or snapshot write stays local.
package partition

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// DefaultCount mirrors Hazelcast's default of 271 partitions: a prime,
// large enough to spread keys, small enough that per-partition overheads
// stay negligible.
const DefaultCount = 271

// Partitioner maps keys to a fixed number of partitions. The zero value is
// unusable; construct with New.
type Partitioner struct {
	count int
}

// New returns a partitioner over count partitions. It panics if count is
// not positive, as that is a programming error rather than runtime input.
func New(count int) Partitioner {
	if count <= 0 {
		panic(fmt.Sprintf("partition: count must be positive, got %d", count))
	}
	return Partitioner{count: count}
}

// Count returns the number of partitions.
func (p Partitioner) Count() int { return p.count }

// Of returns the partition that owns key, in [0, Count()).
func (p Partitioner) Of(key Key) int {
	return int(Hash(key) % uint64(p.count))
}

// Key is a partitioning key. Streaming operators key their state by values
// of these types; anything else must be converted by the caller (keeping
// the conversion explicit avoids silently inconsistent hashing between the
// compute and state layers).
type Key interface{}

// Hash returns a stable 64-bit FNV-1a hash of the key. Stability across
// processes matters: snapshots written by one run must hash identically
// when restored by another. The hash is computed inline — hash/fnv's
// hasher escapes to the heap, an allocation on every routed record and
// every state write.
func Hash(key Key) uint64 {
	switch k := key.(type) {
	case string:
		return hashString(k)
	case int:
		return hashInt(int64(k))
	case int32:
		return hashInt(int64(k))
	case int64:
		return hashInt(k)
	case uint64:
		return hashInt(int64(k))
	case float64:
		return hashInt(int64(math.Float64bits(k)))
	case bool:
		if k {
			return hashString("\x01")
		}
		return hashString("\x00")
	case fmt.Stringer:
		return hashString(k.String())
	default:
		return hashString(fmt.Sprintf("%v", k))
	}
}

// FNV-1a, 64 bit.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// HashString is Hash of a string key, for callers holding a key's
// canonical string (KeyString): unlike Hash it boxes nothing.
func HashString(s string) uint64 { return hashString(s) }

func hashString(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// hashInt hashes v's eight bytes, least significant first.
func hashInt(v int64) uint64 {
	h := fnvOffset
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}

// KeyString renders a key in the canonical form used for map addressing
// and snapshot entry naming. Two keys with equal KeyString are the same
// key for state purposes.
func KeyString(key Key) string {
	switch k := key.(type) {
	case string:
		return k
	case int:
		return strconv.FormatInt(int64(k), 10)
	case int32:
		return strconv.FormatInt(int64(k), 10)
	case int64:
		return strconv.FormatInt(k, 10)
	case uint64:
		return strconv.FormatUint(k, 10)
	default:
		return fmt.Sprintf("%v", k)
	}
}

// Assignment maps every partition to an owner (and optional backup) node.
// It is shared by the KV store (data placement) and the job scheduler
// (compute placement) — and, since membership became elastic, it is a
// *live, versioned* object: every mutation (failover promotion, online
// migration, node join) swaps in a rewritten immutable table carrying a
// bumped global epoch plus per-partition epochs. Reads are lock-free (the
// table is on the hot path of every state operation); writers serialize on
// wmu and publish with one atomic store, so concurrent readers see either
// the old or the new table, never a torn mix. The epochs are the fencing
// tokens of the migration protocol: a KV op stamped with a stale partition
// epoch is rejected by the store (see kv.FencedView).
type Assignment struct {
	state atomic.Pointer[assignTable]
	wmu   sync.Mutex // serializes Apply/AddNode/Promote
}

// assignTable is an immutable owner/backup/epoch snapshot.
type assignTable struct {
	owners  []int
	backups []int
	nodes   int
	epoch   int64   // bumped once per table mutation
	pepochs []int64 // bumped per partition whose seat changed
}

// Assign distributes partitions round-robin over nodes, with the backup of
// each partition on the next node. Round-robin keeps ownership balanced
// within one partition per node, which the scalability experiment relies
// on. It panics if nodes is not positive.
func Assign(partitions, nodes int) *Assignment {
	if nodes <= 0 {
		panic(fmt.Sprintf("partition: nodes must be positive, got %d", nodes))
	}
	t := &assignTable{
		owners:  make([]int, partitions),
		backups: make([]int, partitions),
		nodes:   nodes,
		pepochs: make([]int64, partitions),
	}
	for p := 0; p < partitions; p++ {
		t.owners[p] = p % nodes
		t.backups[p] = (p + 1) % nodes
	}
	a := &Assignment{}
	a.state.Store(t)
	return a
}

// Owner returns the node owning partition p.
func (a *Assignment) Owner(p int) int { return a.state.Load().owners[p] }

// Backup returns the node holding the backup replica of partition p. With a
// single node the backup coincides with the owner.
func (a *Assignment) Backup(p int) int { return a.state.Load().backups[p] }

// Nodes returns the number of nodes in the assignment, including joined
// (and later failed or left) ones — node ids are never reused.
func (a *Assignment) Nodes() int { return a.state.Load().nodes }

// Epoch returns the table's global epoch: 0 at creation, bumped by one on
// every mutation (Apply, AddNode, Promote).
func (a *Assignment) Epoch() int64 { return a.state.Load().epoch }

// PartitionEpoch returns the epoch of partition p's current seat — the
// value a fenced op must carry to be accepted for p.
func (a *Assignment) PartitionEpoch(p int) int64 { return a.state.Load().pepochs[p] }

// Table is an immutable point-in-time handle on the assignment. Fenced KV
// views cache one and stamp its partition epochs on their operations; the
// store compares the stamp against the live table and rejects stale ones.
type Table struct{ t *assignTable }

// Table returns the current table. The handle never changes once obtained;
// call again to observe later mutations.
func (a *Assignment) Table() Table { return Table{t: a.state.Load()} }

// Valid reports whether the handle holds a table (the zero Table does not).
func (t Table) Valid() bool { return t.t != nil }

// Owner returns the node owning partition p as of this table.
func (t Table) Owner(p int) int { return t.t.owners[p] }

// Backup returns partition p's backup node as of this table.
func (t Table) Backup(p int) int { return t.t.backups[p] }

// Nodes returns the node count as of this table.
func (t Table) Nodes() int { return t.t.nodes }

// Epoch returns the table's global epoch.
func (t Table) Epoch() int64 { return t.t.epoch }

// PartitionEpoch returns partition p's epoch as of this table.
func (t Table) PartitionEpoch(p int) int64 { return t.t.pepochs[p] }

// Change reassigns one partition: the unit of an online migration flip.
type Change struct {
	Partition int
	Owner     int
	Backup    int
}

// Apply atomically applies a set of seat changes, bumping the global epoch
// once and the per-partition epoch of every partition whose owner or
// backup actually changed. It returns the new global epoch. An empty or
// all-no-op change set still publishes a table with a bumped global epoch
// (callers use that as a membership-change marker), but leaves partition
// epochs alone so in-flight fenced ops are not spuriously rejected.
func (a *Assignment) Apply(changes []Change) int64 {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	return a.applyLocked(changes, 0)
}

// AddNode grows the assignment by one node, returning the new node's id.
// The new node owns nothing until partitions are migrated to it; only the
// global epoch is bumped.
func (a *Assignment) AddNode() int {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	a.applyLocked(nil, 1)
	return a.state.Load().nodes - 1
}

// applyLocked rewrites the table under wmu: applies changes, grows the
// node count by addNodes, bumps epochs, and publishes atomically.
func (a *Assignment) applyLocked(changes []Change, addNodes int) int64 {
	old := a.state.Load()
	t := &assignTable{
		owners:  append([]int(nil), old.owners...),
		backups: append([]int(nil), old.backups...),
		nodes:   old.nodes + addNodes,
		epoch:   old.epoch + 1,
		pepochs: append([]int64(nil), old.pepochs...),
	}
	for _, c := range changes {
		if t.owners[c.Partition] == c.Owner && t.backups[c.Partition] == c.Backup {
			continue
		}
		t.owners[c.Partition] = c.Owner
		t.backups[c.Partition] = c.Backup
		t.pepochs[c.Partition]++
	}
	a.state.Store(t)
	return t.epoch
}

// Partitions returns the number of partitions in the assignment.
func (a *Assignment) Partitions() int { return len(a.state.Load().owners) }

// OwnedBy returns the partitions owned by node, in ascending order.
func (a *Assignment) OwnedBy(node int) []int {
	t := a.state.Load()
	var out []int
	for p, o := range t.owners {
		if o == node {
			out = append(out, p)
		}
	}
	return out
}

// Promote reassigns every partition owned by failed to its backup and
// picks a new backup for affected partitions. It models the IMDG failover
// behaviour the paper relies on for recovery: the operator restarts on the
// node that already holds the snapshot replica. Concurrent readers see
// either the old or the new table, never a torn mix.
func (a *Assignment) Promote(failed int) {
	a.PromoteAvoiding(failed, nil)
}

// PromoteAvoiding is Promote with a caller-supplied predicate marking
// nodes that must not be chosen as replacement backups (other failed or
// departed members). The failed node itself is always avoided. A nil
// predicate avoids only the failed node — plain Promote's behaviour.
func (a *Assignment) PromoteAvoiding(failed int, avoid func(node int) bool) {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	old := a.state.Load()
	bad := func(n int) bool { return n == failed || (avoid != nil && avoid(n)) }
	changes := make([]Change, 0, len(old.owners))
	for p := range old.owners {
		owner, backup := old.owners[p], old.backups[p]
		if owner == failed {
			owner = backup
		}
		if bad(backup) || backup == owner {
			// Re-seat the backup on the next usable node after the owner.
			backup = owner
			for i := 0; i < old.nodes; i++ {
				cand := (owner + 1 + i) % old.nodes
				if !bad(cand) && cand != owner {
					backup = cand
					break
				}
			}
		}
		if owner != old.owners[p] || backup != old.backups[p] {
			changes = append(changes, Change{Partition: p, Owner: owner, Backup: backup})
		}
	}
	a.applyLocked(changes, 0)
}
