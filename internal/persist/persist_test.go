package persist

import (
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

type payload struct {
	N int
	S string
}

func init() { gob.Register(payload{}) }

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEmptyStore(t *testing.T) {
	s := openTemp(t)
	ids, err := s.Committed()
	if err != nil || len(ids) != 0 {
		t.Fatalf("Committed = %v, %v", ids, err)
	}
	latest, err := s.Latest()
	if err != nil || latest != 0 {
		t.Fatalf("Latest = %d, %v", latest, err)
	}
}

func TestWriteCommitRead(t *testing.T) {
	s := openTemp(t)
	entries := []Entry{
		{Key: "a", Value: payload{N: 1, S: "x"}},
		{Key: 7, Value: payload{N: 2, S: "y"}},
	}
	if err := s.WriteSegment(1, "orders", entries); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSegment(1, "riders", nil); err != nil {
		t.Fatal(err)
	}
	// Not visible before Commit.
	if latest, _ := s.Latest(); latest != 0 {
		t.Fatalf("Latest before commit = %d", latest)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if latest, _ := s.Latest(); latest != 1 {
		t.Fatalf("Latest = %d", latest)
	}
	ops, err := s.Operators(1)
	if err != nil || len(ops) != 2 || ops[0] != "orders" || ops[1] != "riders" {
		t.Fatalf("Operators = %v, %v", ops, err)
	}
	got, err := s.ReadSegment(1, "orders")
	if err != nil || len(got) != 2 {
		t.Fatalf("ReadSegment = %v, %v", got, err)
	}
	if got[0].Key != "a" || got[0].Value.(payload).S != "x" {
		t.Fatalf("entry = %+v", got[0])
	}
	if got[1].Key != 7 {
		t.Fatalf("key type lost: %T", got[1].Key)
	}
}

func TestCommitOrderEnforced(t *testing.T) {
	s := openTemp(t)
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err == nil {
		t.Fatal("duplicate commit accepted")
	}
	if err := s.Commit(1); err == nil {
		t.Fatal("out-of-order commit accepted")
	}
	if err := s.Commit(5); err != nil {
		t.Fatal(err)
	}
	ids, _ := s.Committed()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
		t.Fatalf("Committed = %v", ids)
	}
}

func TestPrune(t *testing.T) {
	s := openTemp(t)
	for i := int64(1); i <= 3; i++ {
		if err := s.WriteSegment(i, "op", []Entry{{Key: i, Value: i}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Prune([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	ids, _ := s.Committed()
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("Committed = %v", ids)
	}
	if _, err := s.ReadSegment(1, "op"); err == nil {
		t.Fatal("pruned segment still readable")
	}
	if _, err := s.ReadSegment(3, "op"); err != nil {
		t.Fatalf("retained segment unreadable: %v", err)
	}
	// Pruning nothing or unknown ids is fine.
	if err := s.Prune(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Prune([]int64{42}); err != nil {
		t.Fatal(err)
	}
}

func TestReopenSeesCommitted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteSegment(1, "op", []Entry{{Key: "k", Value: payload{N: 9}}})
	s.Commit(1)

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest, err := reopened.Latest()
	if err != nil || latest != 1 {
		t.Fatalf("reopened Latest = %d, %v", latest, err)
	}
	got, err := reopened.ReadSegment(1, "op")
	if err != nil || got[0].Value.(payload).N != 9 {
		t.Fatalf("reopened read = %v, %v", got, err)
	}
}

func TestHalfWrittenSegmentInvisible(t *testing.T) {
	s := openTemp(t)
	s.WriteSegment(1, "op", []Entry{{Key: 1, Value: 1}})
	// Simulate a crash mid-write of a second segment: a stray .tmp file.
	tmp := filepath.Join(s.Dir(), "ss-1", "other.gob.tmp")
	if err := os.WriteFile(tmp, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Commit(1)
	ops, err := s.Operators(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0] != "op" {
		t.Fatalf("Operators = %v — tmp file leaked into listing", ops)
	}
}

func TestCorruptManifestSurfacesError(t *testing.T) {
	s := openTemp(t)
	if err := os.WriteFile(filepath.Join(s.Dir(), "MANIFEST"), []byte("not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Committed(); err == nil {
		t.Fatal("corrupt manifest read succeeded")
	}
}

// Property: write/commit/read round-trips arbitrary int-keyed entries.
func TestRoundTripProperty(t *testing.T) {
	f := func(keys []int16, vals []int32) bool {
		s := openTemp(t)
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		entries := make([]Entry, n)
		for i := 0; i < n; i++ {
			entries[i] = Entry{Key: int(keys[i]), Value: int(vals[i])}
		}
		if err := s.WriteSegment(1, "op", entries); err != nil {
			return false
		}
		if err := s.Commit(1); err != nil {
			return false
		}
		got, err := s.ReadSegment(1, "op")
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i].Key != entries[i].Key || got[i].Value != entries[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
