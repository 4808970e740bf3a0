package kv

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"squery/internal/partition"
	"squery/internal/transport"
	"squery/internal/wire"
)

// Epoch fencing: the store-side half of the online migration protocol.
//
// The partition table is a live, versioned object (see
// partition.Assignment): every failover promotion or migration flip bumps
// a global table epoch and the per-partition epoch of each reseated
// partition. A *fenced* NodeView caches a table snapshot and stamps its
// partition epochs on every write it issues; the store compares the stamp
// against the live table under the segment lock and rejects mismatches
// with StaleEpochError — the split-brain fence: a node that missed a
// membership change cannot keep writing to a partition it no longer
// addresses correctly. The rejected sender refreshes its cached table,
// backs off exponentially, and retries against the new owner.
//
// While a partition's handoff is in flight the partition is frozen
// (MigratingError) so the shipped snapshot cannot be overtaken by writes
// racing the ownership flip.
//
// Everything here is the protocol layer over a shared-memory store: data
// is never at risk (the store can always apply an op), so after a bounded
// number of rejections an op is forced through as a liveness backstop and
// counted in FenceStats.Forced — in a healthy run that counter stays 0.

// StaleEpochError rejects a fenced op stamped with an out-of-date
// partition epoch: the sender's cached table predates a migration or
// failover of that partition.
type StaleEpochError struct {
	Partition int
	OpEpoch   int64
	CurEpoch  int64
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("kv: stale epoch %d for partition %d (current %d)", e.OpEpoch, e.Partition, e.CurEpoch)
}

// MigratingError rejects a fenced op addressed to a partition whose
// handoff is in flight: the partition is frozen until ownership flips.
type MigratingError struct{ Partition int }

func (e *MigratingError) Error() string {
	return fmt.Sprintf("kv: partition %d is migrating", e.Partition)
}

// fenceState is the mutable half of a fenced NodeView: the cached table
// snapshot whose epochs the view stamps on its ops. Refreshed (atomically
// swapped) after every rejection.
type fenceState struct {
	table atomic.Pointer[partition.Table]
}

func (f *fenceState) refresh(s *Store) {
	t := s.assign.Table()
	f.table.Store(&t)
}

// FencedView returns a NodeView whose writes carry the epoch of a cached
// partition-table snapshot and are rejected when that snapshot goes stale.
// Operator state backends use fenced views; plain View remains for callers
// outside the migration protocol (query clients, tests).
func (s *Store) FencedView(node int) NodeView {
	f := &fenceState{}
	f.refresh(s)
	return NodeView{store: s, node: node, fence: f}
}

// Fenced reports whether this view stamps epochs on its writes.
func (v NodeView) Fenced() bool { return v.fence != nil }

// FenceEpoch returns the global epoch of the view's cached table, or -1
// for an unfenced view.
func (v NodeView) FenceEpoch() int64 {
	if v.fence == nil {
		return -1
	}
	return v.fence.table.Load().Epoch()
}

// ownerOf resolves partition p's owner for routing: the live table for
// plain views, the cached snapshot for fenced ones. A fenced op is
// addressed to the owner the sender *believes in* — that is what makes
// staleness observable (the hop goes to the old owner, the epoch check
// rejects it) instead of silently self-correcting.
func (v NodeView) ownerOf(p int) int {
	if v.fence != nil {
		return v.fence.table.Load().Owner(p)
	}
	return v.store.assign.Owner(p)
}

// checkFence validates a fenced write to partition p. Called with the
// partition's segment lock held, so the decision is atomic with the
// mutation it guards. A nil fence always passes.
func (s *Store) checkFence(f *fenceState, p int) error {
	if f == nil {
		return nil
	}
	if s.migrating[p].Load() {
		return &MigratingError{Partition: p}
	}
	op := f.table.Load().PartitionEpoch(p)
	if cur := s.assign.PartitionEpoch(p); op != cur {
		return &StaleEpochError{Partition: p, OpEpoch: op, CurEpoch: cur}
	}
	return nil
}

const (
	// fenceMaxAttempts bounds the reject-refresh-retry loop before an op
	// is forced through unfenced (liveness backstop; see package comment).
	fenceMaxAttempts = 64
	fenceBaseBackoff = 100 * time.Microsecond
	fenceMaxBackoff  = 5 * time.Millisecond
)

// fenced runs one fenceable operation: on rejection it refreshes the
// view's cached table, backs off exponentially, and retries against the
// (possibly new) owner. Unfenced views pass straight through — op cannot
// be rejected without a fence.
func (v NodeView) fenced(op func(force bool) error) {
	err := op(false)
	if err == nil || v.fence == nil {
		return
	}
	s := v.store
	backoff := fenceBaseBackoff
	for attempt := 1; attempt < fenceMaxAttempts; attempt++ {
		s.fenceRejects.Add(1)
		v.fence.refresh(s)
		time.Sleep(backoff)
		if backoff *= 2; backoff > fenceMaxBackoff {
			backoff = fenceMaxBackoff
		}
		s.fenceRetries.Add(1)
		if err = op(false); err == nil {
			return
		}
	}
	s.fenceRejects.Add(1)
	s.fenceForced.Add(1)
	v.fence.refresh(s)
	_ = op(true)
}

// FenceStats is the store's cumulative fencing accounting.
type FenceStats struct {
	// Rejects counts ops bounced with StaleEpochError or MigratingError.
	Rejects int64
	// Retries counts re-attempts after a refresh (Rejects minus final
	// give-ups equals successful Retries).
	Retries int64
	// Forced counts ops pushed through unfenced after exhausting retries;
	// nonzero means a migration stalled far beyond the backoff budget.
	Forced int64
}

// FenceStats returns the store's cumulative fencing counters.
func (s *Store) FenceStats() FenceStats {
	return FenceStats{
		Rejects: s.fenceRejects.Load(),
		Retries: s.fenceRetries.Load(),
		Forced:  s.fenceForced.Load(),
	}
}

// BeginPartitionMigration freezes partition p: fenced writers bounce with
// MigratingError until EndPartitionMigration. It reports whether the
// freeze was acquired (false if a migration of p is already in flight).
func (s *Store) BeginPartitionMigration(p int) bool {
	return s.migrating[p].CompareAndSwap(false, true)
}

// EndPartitionMigration thaws partition p. Safe to call after either a
// completed flip or an aborted handoff — the shared-memory segments were
// never torn, so abort needs no data rollback, only the thaw.
func (s *Store) EndPartitionMigration(p int) {
	s.migrating[p].Store(false)
}

// Migrating reports whether partition p is currently frozen.
func (s *Store) Migrating(p int) bool { return s.migrating[p].Load() }

// ShipPartition encodes every map's slice of partition p — its entries and
// every row of its frozen image — with the wire codec and sends it from →
// to, one message per non-empty map, with a real payload frame — over the
// loopback transport the state bytes actually cross a TCP socket. It
// returns total entry and byte counts for the caller's handoff accounting
// (e.g. charging the new backup's seed copy). Entries whose key or value the codec cannot encode are still
// counted by wire.Size but omitted from the frame, keeping the accounting
// transport-independent.
func (s *Store) ShipPartition(p, from, to int) (ops, bytes int) {
	if from == to {
		return 0, 0
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.maps))
	for n := range s.maps {
		names = append(names, n)
	}
	sort.Strings(names)
	maps := make([]*Map, len(names))
	for i, n := range names {
		maps[i] = s.maps[n]
	}
	s.mu.RUnlock()
	for _, m := range maps {
		seg := m.segs[p]
		seg.mu.RLock()
		entries := make([]Entry, 0, len(seg.entries))
		for _, e := range seg.entries {
			entries = append(entries, e)
		}
		img := seg.frozen
		seg.mu.RUnlock()
		if img != nil {
			img.Rows(func(key partition.Key, value any) {
				entries = append(entries, Entry{Key: key, Value: value})
			})
		}
		if len(entries) == 0 {
			continue
		}
		payload := make([]byte, 0, 32*len(entries))
		sz := 0
		for _, e := range entries {
			sz += wire.Size(e.Key) + wire.Size(e.Value)
			if b, err := wire.AppendValue(payload, e.Key); err == nil {
				payload = b
			}
			if b, err := wire.AppendValue(payload, e.Value); err == nil {
				payload = b
			}
		}
		s.tr.Send(transport.Msg{From: from, To: to, Ops: len(entries), Bytes: sz, Payload: payload})
		ops += len(entries)
		bytes += sz
	}
	return ops, bytes
}
