package kv

import "fmt"

// Replication gives each partition a synchronous backup copy, notionally
// held by the partition's backup node (§V.A of the paper: snapshots are
// first written locally and replicated by the store; "if a node fails,
// the respective operator can be scheduled on the node holding that
// snapshot's replica"). Without replication, a node failure loses the
// primary copies of its partitions — the semantics FailNode enforces so
// that the simulation cannot silently rely on everything living in one
// process.

// SetReplicated enables synchronous backup copies. It must be called
// before any data is written — enabling it later would leave earlier
// entries unprotected — so a non-empty store is rejected with an error.
// Maps that already exist (but are empty) are retrofitted with backup
// segments.
func (s *Store) SetReplicated() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, m := range s.maps {
		if m.sizeLocked() > 0 {
			return fmt.Errorf("kv: SetReplicated on a non-empty store (map %q already holds entries)", name)
		}
	}
	s.replicated = true
	for _, m := range s.maps {
		if m.backups == nil {
			m.backups = newBackups(s.part.Count())
		}
	}
	return nil
}

// Replicated reports whether synchronous backups are enabled.
func (s *Store) Replicated() bool { return s.replicated }

func (m *Map) sizeLocked() int {
	n := 0
	for _, seg := range m.segs {
		n += len(seg.entries)
	}
	return n
}

// FailNode simulates the memory loss of a node: the primary copies of
// the given partitions vanish. With replication enabled each partition's
// backup copy is promoted to primary and re-seeded as a fresh backup;
// without replication the partitions come back empty. The caller
// (cluster.Fail) updates the partition table separately.
func (s *Store) FailNode(partitions []int) {
	for _, m := range s.mapList() {
		for _, p := range partitions {
			seg := m.segs[p]
			seg.mu.Lock()
			var next map[string]Entry
			if s.replicated {
				bak := m.backups[p]
				bak.mu.Lock()
				next = bak.entries
				// Re-seed the backup with a fresh copy for the next
				// failure.
				cp := make(map[string]Entry, len(next))
				for k, v := range next {
					cp[k] = v
				}
				bak.entries = cp
				bak.mu.Unlock()
			} else {
				next = make(map[string]Entry)
			}
			m.resetPartitionLocked(p, seg, next)
			seg.mu.Unlock()
		}
	}
}

// BackupSize returns the number of entries in backup copies of the map —
// diagnostics and tests only.
func (m *Map) BackupSize() int {
	if !m.store.replicated {
		return 0
	}
	n := 0
	for _, seg := range m.backups {
		seg.mu.RLock()
		n += len(seg.entries)
		seg.mu.RUnlock()
	}
	return n
}
