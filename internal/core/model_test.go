package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"squery/internal/kv"
	"squery/internal/partition"
)

// TestIncrementalMatchesModel is the central invariant of incremental
// snapshots: for ANY random sequence of updates, deletes and checkpoints,
// reconstructing the state at every retained snapshot id through the
// version chains must produce exactly the state a model map held when
// that checkpoint was taken — including after pruning evicts old
// versions. This exercises the full differential-read path of §VI.A.
//
// The live arm runs the same sequences on a Live backend, whose state is
// the live map itself: after every step Get, and the live map with the
// write-behind batch laid over it, equal the model (ForEach and Size,
// which flush the batch, on a random quarter of the steps so the batch
// still fills); a mid-sequence recovery restores to the latest committed
// id and carries on; and at the end a Restore to a random retained id
// leaves exactly that id's state in the live map.
func TestIncrementalMatchesModel(t *testing.T) {
	for _, live := range []bool{false, true} {
		name := "private"
		if live {
			name = "live"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, incremental bool) bool {
				if err := runModel(seed, incremental, live); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

func runModel(seed int64, incremental, live bool) error {
	rng := rand.New(rand.NewSource(seed))
	store := newTestStore()
	mgr := NewManager(store, 1+rng.Intn(3))
	cfg := Config{Live: live, Snapshots: true, Incremental: incremental}
	if err := mgr.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		return err
	}
	b := NewBackend("op", 0, store.View(0), cfg)
	where := fmt.Sprintf("seed %d inc=%v live=%v", seed, incremental, live)

	model := map[int]int{}              // current state
	recorded := map[int64]map[int]int{} // ssid -> state at checkpoint
	keySpace := 1 + rng.Intn(30)

	steps := 20 + rng.Intn(60)
	for s := 0; s < steps; s++ {
		switch r := rng.Intn(20); {
		case r < 2: // checkpoint
			ssid, err := mgr.Begin()
			if err != nil {
				return err
			}
			if _, err := b.SnapshotPrepare(ssid); err != nil {
				return err
			}
			mgr.Commit(ssid)
			recorded[ssid] = copyModel(model)
		case r == 2: // crash and recover to the latest commit (live arm)
			ssid := mgr.Registry().LatestCommitted()
			if !live || ssid == 0 {
				continue
			}
			b = NewBackend("op", 0, store.View(0), cfg)
			if err := b.Restore(ssid); err != nil {
				return err
			}
			model = copyModel(recorded[ssid])
		case r < 7: // delete
			k := rng.Intn(keySpace)
			delete(model, k)
			b.Delete(k)
		default: // update
			k := rng.Intn(keySpace)
			v := rng.Int()
			model[k] = v
			b.Update(k, v)
		}
		if err := checkBackend(b, model, keySpace, rng.Intn(4) == 0); err != nil {
			return fmt.Errorf("%s step %d: %w", where, s, err)
		}
		if live {
			if err := checkLive(store, b.pending, model); err != nil {
				return fmt.Errorf("%s step %d: %w", where, s, err)
			}
		}
	}

	// Verify every still-queryable snapshot against the model.
	for _, ssid := range mgr.Registry().Committed() {
		want := recorded[ssid]
		got := map[int]int{}
		// Use the catalog path (the one queries take).
		cat := NewCatalog(store)
		if err := cat.RegisterJob(mgr.Registry(), "op"); err != nil {
			return err
		}
		tab, err := cat.Table("snapshot_op")
		if err != nil {
			return err
		}
		target, err := tab.HoldSSID(ssid)
		if err != nil {
			return err
		}
		tab.Scan(target, func(r TableRow) bool {
			got[r.Key.(int)] = r.Raw.(int)
			return true
		})
		tab.ReleaseSSID(target)
		if err := sameState(got, want); err != nil {
			return fmt.Errorf("%s ssid %d: %w", where, ssid, err)
		}
		cat.UnregisterJob("op")
	}

	committed := mgr.Registry().Committed()
	if !live || len(committed) == 0 {
		return nil
	}
	ssid := committed[rng.Intn(len(committed))]
	restored := NewBackend("op", 0, store.View(0), cfg)
	if err := restored.Restore(ssid); err != nil {
		return err
	}
	if err := checkLive(store, nil, recorded[ssid]); err != nil {
		return fmt.Errorf("%s after Restore(%d): %w", where, ssid, err)
	}
	return checkBackend(restored, recorded[ssid], keySpace, true)
}

func copyModel(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkBackend compares the backend's Get of every key in the key space
// — and, when walk is set, its ForEach and Size — with the model.
func checkBackend(b *Backend, model map[int]int, keySpace int, walk bool) error {
	for k := 0; k < keySpace; k++ {
		v, ok := b.Get(k)
		want, wantOK := model[k]
		if ok != wantOK || (ok && v.(int) != want) {
			return fmt.Errorf("Get(%d) = %v, %v; want %d, %v", k, v, ok, want, wantOK)
		}
	}
	if !walk {
		return nil
	}
	got := map[int]int{}
	b.ForEach(func(k partition.Key, v any) bool {
		got[k.(int)] = v.(int)
		return true
	})
	if err := sameState(got, model); err != nil {
		return fmt.Errorf("ForEach: %w", err)
	}
	if n := b.Size(); n != len(model) {
		return fmt.Errorf("Size = %d, want %d", n, len(model))
	}
	return nil
}

// checkLive compares the live map, with the write-behind batch pending
// applied over it, to the model.
func checkLive(store *kv.Store, pending []kv.Op, model map[int]int) error {
	got := map[int]int{}
	store.View(0).Scan(LiveMapName("op"), func(e kv.Entry) bool {
		got[e.Key.(int)] = e.Value.(int)
		return true
	})
	for _, op := range pending {
		if op.Delete {
			delete(got, op.Key.(int))
		} else {
			got[op.Key.(int)] = op.Value.(int)
		}
	}
	if err := sameState(got, model); err != nil {
		return fmt.Errorf("live map: %w", err)
	}
	return nil
}

func sameState(got, want map[int]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return fmt.Errorf("key %d: got %d, %v; want %d", k, g, ok, v)
		}
	}
	return nil
}
