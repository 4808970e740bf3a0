package partition

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestOfInRange(t *testing.T) {
	p := New(DefaultCount)
	f := func(key string) bool {
		part := p.Of(key)
		return part >= 0 && part < DefaultCount
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hashing is deterministic and type-consistent for the canonical
// integer types (an int key and its int64 widening land in the same
// partition — the compute layer uses int keys, serialized state int64).
func TestHashIntWideningConsistent(t *testing.T) {
	f := func(k int32) bool {
		return Hash(int(k)) == Hash(int64(k)) && Hash(int32(k)) == Hash(int64(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashIsFNV1a pins the inline hash to hash/fnv's FNV-1a over the same
// bytes: persisted snapshots and partition placement depend on the values,
// not just on their being stable within one build.
func TestHashIsFNV1a(t *testing.T) {
	ref := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	le := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	str := func(s string) bool { return Hash(s) == ref([]byte(s)) }
	num := func(v int64) bool {
		return Hash(v) == ref(le(v)) && Hash(uint64(v)) == ref(le(v)) &&
			Hash(math.Float64frombits(uint64(v))) == ref(le(v))
	}
	if err := quick.Check(str, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(num, nil); err != nil {
		t.Error(err)
	}
	if Hash(true) != ref([]byte{1}) || Hash(false) != ref([]byte{0}) {
		t.Error("bool keys do not hash as one FNV-1a byte")
	}
}

// TestHashAllocs gates the record path's most frequent call: routing and
// every state write hash the key.
func TestHashAllocs(t *testing.T) {
	keys := []Key{"order-123456", 42, int64(7), 2.5, true}
	if a := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			Hash(k)
		}
	}); a != 0 {
		t.Fatalf("Hash allocated %.1f times per run, want 0", a)
	}
}

func TestHashDeterministic(t *testing.T) {
	f := func(s string) bool { return Hash(s) == Hash(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDistinguishesTypes(t *testing.T) {
	// A string "1" and the int 1 are different keys.
	if Hash("1") == Hash(1) {
		t.Error(`Hash("1") == Hash(1); string and int keys must not collide structurally`)
	}
}

func TestHashFloatAndBool(t *testing.T) {
	if Hash(1.5) == Hash(2.5) {
		t.Error("distinct floats hash equal")
	}
	if Hash(true) == Hash(false) {
		t.Error("booleans hash equal")
	}
	if Hash(math.Copysign(0, -1)) == Hash(1.0) {
		t.Error("-0.0 and 1.0 hash equal")
	}
}

func TestKeyString(t *testing.T) {
	cases := []struct {
		key  Key
		want string
	}{
		{"abc", "abc"},
		{42, "42"},
		{int32(-7), "-7"},
		{int64(1 << 40), "1099511627776"},
		{uint64(9), "9"},
		{3.5, "3.5"},
	}
	for _, c := range cases {
		if got := KeyString(c.key); got != c.want {
			t.Errorf("KeyString(%v) = %q, want %q", c.key, got, c.want)
		}
	}
}

// Distribution sanity: over many keys, no partition should be grossly
// over- or under-loaded.
func TestDistributionBalance(t *testing.T) {
	p := New(DefaultCount)
	counts := make([]int, DefaultCount)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[p.Of(i)]++
	}
	mean := float64(n) / DefaultCount
	for part, c := range counts {
		if float64(c) < mean*0.5 || float64(c) > mean*1.5 {
			t.Errorf("partition %d holds %d keys, mean %.0f — imbalance beyond 50%%", part, c, mean)
		}
	}
}

func TestAssignBalanced(t *testing.T) {
	a := Assign(DefaultCount, 7)
	perNode := make([]int, 7)
	for p := 0; p < a.Partitions(); p++ {
		perNode[a.Owner(p)]++
		if a.Backup(p) == a.Owner(p) {
			t.Errorf("partition %d: backup equals owner with 7 nodes", p)
		}
	}
	min, max := perNode[0], perNode[0]
	for _, c := range perNode {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("round-robin imbalance: min=%d max=%d", min, max)
	}
}

func TestAssignSingleNode(t *testing.T) {
	a := Assign(16, 1)
	for p := 0; p < 16; p++ {
		if a.Owner(p) != 0 || a.Backup(p) != 0 {
			t.Fatalf("single-node assignment wrong at partition %d", p)
		}
	}
}

func TestOwnedByCoversAllPartitions(t *testing.T) {
	a := Assign(DefaultCount, 5)
	seen := make(map[int]bool)
	for n := 0; n < 5; n++ {
		for _, p := range a.OwnedBy(n) {
			if seen[p] {
				t.Fatalf("partition %d owned by two nodes", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != DefaultCount {
		t.Fatalf("OwnedBy covers %d partitions, want %d", len(seen), DefaultCount)
	}
}

func TestPromoteMovesOwnershipOffFailedNode(t *testing.T) {
	a := Assign(DefaultCount, 3)
	a.Promote(1)
	for p := 0; p < a.Partitions(); p++ {
		if a.Owner(p) == 1 {
			t.Fatalf("partition %d still owned by failed node", p)
		}
		if a.Backup(p) == 1 {
			t.Fatalf("partition %d still backed up on failed node", p)
		}
		if a.Owner(p) == a.Backup(p) {
			t.Fatalf("partition %d owner == backup after promote", p)
		}
	}
}

// Property: promotion preserves the owner/backup disjointness invariant for
// any failed node in any cluster size ≥ 3.
func TestPromoteInvariant(t *testing.T) {
	f := func(nodesRaw, failedRaw uint8) bool {
		nodes := int(nodesRaw%5) + 3
		failed := int(failedRaw) % nodes
		a := Assign(DefaultCount, nodes)
		a.Promote(failed)
		for p := 0; p < a.Partitions(); p++ {
			if a.Owner(p) == failed || a.Owner(p) == a.Backup(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEpochStartsAtZeroAndBumpsOnApply(t *testing.T) {
	a := Assign(8, 2)
	if a.Epoch() != 0 {
		t.Fatalf("fresh table epoch = %d, want 0", a.Epoch())
	}
	e := a.Apply([]Change{{Partition: 0, Owner: 1, Backup: 0}})
	if e != 1 || a.Epoch() != 1 {
		t.Fatalf("epoch after one Apply = %d/%d, want 1", e, a.Epoch())
	}
	if a.Owner(0) != 1 || a.Backup(0) != 0 {
		t.Fatalf("change not applied: owner=%d backup=%d", a.Owner(0), a.Backup(0))
	}
}

func TestApplyBumpsOnlyChangedPartitionEpochs(t *testing.T) {
	a := Assign(8, 2)
	before := make([]int64, 8)
	for p := range before {
		before[p] = a.PartitionEpoch(p)
	}
	moved := 3
	a.Apply([]Change{{Partition: moved, Owner: 1 - a.Owner(moved), Backup: a.Owner(moved)}})
	for p := 0; p < 8; p++ {
		got := a.PartitionEpoch(p)
		if p == moved && got == before[p] {
			t.Fatalf("moved partition %d epoch unchanged", p)
		}
		if p != moved && got != before[p] {
			t.Fatalf("untouched partition %d epoch bumped %d -> %d", p, before[p], got)
		}
	}
}

func TestApplyNoopChangeStillBumpsGlobalEpoch(t *testing.T) {
	a := Assign(8, 2)
	// Re-asserting the current seats changes nothing per-partition but
	// still versions the table (a rebalance that planned zero moves).
	pe := a.PartitionEpoch(0)
	a.Apply([]Change{{Partition: 0, Owner: a.Owner(0), Backup: a.Backup(0)}})
	if a.Epoch() != 1 {
		t.Fatalf("global epoch = %d, want 1", a.Epoch())
	}
	if a.PartitionEpoch(0) != pe {
		t.Fatal("unchanged seats bumped the partition epoch")
	}
}

func TestAddNodeGrowsAndBumps(t *testing.T) {
	a := Assign(8, 2)
	n := a.AddNode()
	if n != 2 || a.Nodes() != 3 {
		t.Fatalf("AddNode = %d (nodes %d), want 2 (nodes 3)", n, a.Nodes())
	}
	if a.Epoch() == 0 {
		t.Fatal("AddNode did not bump the epoch")
	}
	if len(a.OwnedBy(n)) != 0 {
		t.Fatal("new node owns partitions before any migration")
	}
}

func TestPromoteBumpsReseatedPartitionEpochs(t *testing.T) {
	a := Assign(27, 3)
	owned := a.OwnedBy(1)
	a.Promote(1)
	for _, p := range owned {
		if a.PartitionEpoch(p) == 0 {
			t.Fatalf("promoted partition %d kept epoch 0", p)
		}
	}
	if a.Epoch() == 0 {
		t.Fatal("promotion did not bump the global epoch")
	}
}

func TestTableSnapshotIsImmutable(t *testing.T) {
	a := Assign(8, 2)
	tab := a.Table()
	if !tab.Valid() {
		t.Fatal("snapshot of live table not valid")
	}
	owner0, epoch := tab.Owner(0), tab.Epoch()
	a.Apply([]Change{{Partition: 0, Owner: 1 - owner0, Backup: owner0}})
	if tab.Owner(0) != owner0 || tab.Epoch() != epoch {
		t.Fatal("table snapshot mutated by a later Apply")
	}
	if a.Table().Epoch() == epoch {
		t.Fatal("fresh snapshot does not see the new epoch")
	}
}
