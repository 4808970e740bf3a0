package kv

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestSetReplicatedRejectsNonEmptyStore: enabling replication after data
// was written must fail with an error, not panic (the earlier entries
// would silently lack backup copies).
func TestSetReplicatedRejectsNonEmptyStore(t *testing.T) {
	s := testStore()
	s.View(0).Put("m", "k", 1)
	err := s.SetReplicated()
	if err == nil {
		t.Fatal("SetReplicated on a non-empty store succeeded")
	}
	if !strings.Contains(err.Error(), "non-empty") {
		t.Fatalf("error = %v", err)
	}
	if s.Replicated() {
		t.Fatal("store marked replicated despite the error")
	}
}

// TestSetReplicatedRetrofitsEmptyMaps: a map created before SetReplicated
// (but still empty) must gain backup segments, so later writes replicate
// instead of hitting nil backups.
func TestSetReplicatedRetrofitsEmptyMaps(t *testing.T) {
	s := testStore()
	m := s.GetMap("early") // exists, empty
	if err := s.SetReplicated(); err != nil {
		t.Fatal(err)
	}
	s.View(0).Put("early", "k", 7)
	if m.BackupSize() != 1 {
		t.Fatalf("backup size = %d, want 1", m.BackupSize())
	}
}

// stallHook blocks access to one partition; denyHook severs it.
type faultFunc func(from, owner, p int) error

func (f faultFunc) Access(from, owner, p int) error { return f(from, owner, p) }

func TestCheckAccessConsultsHook(t *testing.T) {
	s := testStore()
	sentinel := errors.New("severed")
	var deadPart = s.Partitioner().Of("victim")
	s.SetFaultHook(faultFunc(func(from, owner, p int) error {
		if p == deadPart {
			return sentinel
		}
		return nil
	}))

	if err := s.CheckAccess(ClientNode, deadPart); !errors.Is(err, sentinel) {
		t.Fatalf("CheckAccess = %v, want wrapped sentinel", err)
	}
	other := (deadPart + 1) % s.Partitioner().Count()
	if err := s.CheckAccess(ClientNode, other); err != nil {
		t.Fatalf("healthy partition errored: %v", err)
	}
	// Local access is never faulted.
	if err := s.CheckAccess(s.Assignment().Owner(deadPart), deadPart); err != nil {
		t.Fatalf("local access faulted: %v", err)
	}
	// Clearing the hook heals everything.
	s.SetFaultHook(nil)
	if err := s.CheckAccess(ClientNode, deadPart); err != nil {
		t.Fatalf("access after hook cleared: %v", err)
	}
}

func TestCheckBackupAccessTargetsBackupNode(t *testing.T) {
	s := testStore()
	p := 5
	owner := s.Assignment().Owner(p)
	backup := s.Assignment().Backup(p)
	if owner == backup {
		t.Skip("owner == backup in this layout")
	}
	// Sever only the owner node: primary access fails, backup succeeds.
	s.SetFaultHook(faultFunc(func(from, o, part int) error {
		if o == owner {
			return errors.New("owner down")
		}
		return nil
	}))
	if err := s.CheckAccess(ClientNode, p); err == nil {
		t.Fatal("primary access succeeded through severed owner")
	}
	if err := s.CheckBackupAccess(ClientNode, p); err != nil {
		t.Fatalf("backup access failed: %v", err)
	}
}

func TestScanPartitionBackupReadsReplica(t *testing.T) {
	s := testStore()
	if err := s.SetReplicated(); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	v.Put("m", "a", 1)
	v.Put("m", "b", 2)
	m := s.GetMap("m")
	got := 0
	for p := 0; p < s.Partitioner().Count(); p++ {
		m.ScanPartitionBackupWith(p, ScanOpts{}, func(es []Entry) bool {
			got += len(es)
			return true
		})
	}
	if got != 2 {
		t.Fatalf("backup scan saw %d entries, want 2", got)
	}
	// Without replication the backup scan is empty, not a panic.
	s2 := testStore()
	s2.View(0).Put("m", "a", 1)
	s2.GetMap("m").ScanPartitionBackupWith(0, ScanOpts{}, func([]Entry) bool {
		t.Fatal("unreplicated backup scan produced an entry")
		return false
	})
}

func TestStalledPartitionBlocksAccess(t *testing.T) {
	s := testStore()
	s.SetFaultHook(faultFunc(func(from, owner, p int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}))
	start := time.Now()
	if err := s.CheckAccess(ClientNode, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("stall not applied: %s", d)
	}
}
