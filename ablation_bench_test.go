package squery

// Ablation benchmarks for the design decisions DESIGN.md calls out:
//
//   - co-partitioned per-partition joins vs a global hash join (the §II
//     co-location optimisation);
//   - per-update live-state mirroring cost (the price of the live table);
//   - version-chain resolution cost as incremental chains grow (the
//     differential-read overhead behind Figure 13);
//   - blob vs per-key queryable snapshot writes (the delta behind
//     Figures 8 and 10).

import (
	"fmt"
	"testing"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/qcommerce"
)

// BenchmarkJoinCoPartitioned measures the paper's Query 3 using the
// partition-wise join (USING(partitionKey) routes through the
// co-partitioned plan).
func BenchmarkJoinCoPartitioned(b *testing.B) {
	eng, job := benchEngine(b, 10_000, StateConfig{Live: true, Snapshots: true})
	defer job.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(qcommerce.Query3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinGlobalHash measures the same join forced through the
// general ON-clause plan (global build + probe), quantifying what
// co-partitioning saves.
func BenchmarkJoinGlobalHash(b *testing.B) {
	eng, job := benchEngine(b, 10_000, StateConfig{Live: true, Snapshots: true})
	defer job.Stop()
	q := `SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" AS a JOIN "snapshot_orderstate" AS b ON a.partitionKey = b.partitionKey WHERE (orderState='VENDOR_ACCEPTED') GROUP BY deliveryZone`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveMirroringUpdate measures a state update with live-state
// mirroring enabled vs BenchmarkBareUpdate without — the per-update cost
// the live configuration pays in Figure 8.
func BenchmarkLiveMirroringUpdate(b *testing.B) {
	benchBackendUpdate(b, core.Config{Live: true})
}

// BenchmarkBareUpdate is the baseline for BenchmarkLiveMirroringUpdate.
func BenchmarkBareUpdate(b *testing.B) {
	benchBackendUpdate(b, core.Config{})
}

func benchBackendUpdate(b *testing.B, cfg core.Config) {
	p := partition.New(partition.DefaultCount)
	store := kv.NewStore(p, partition.Assign(p.Count(), 1), nil)
	backend := core.NewBackend("bench", 0, store.View(0), cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backend.Update(i%10_000, i)
	}
}

// BenchmarkChainResolution measures a snapshot point read as a key's
// version history grows — the read-side cost of incremental snapshots:
// depth drains rewrite the key, and the read resolves the newest version.
func BenchmarkChainResolution(b *testing.B) {
	for _, depth := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			p := partition.New(partition.DefaultCount)
			store := kv.NewStore(p, partition.Assign(p.Count(), 1), nil)
			backend := core.NewBackend("bench", 0, store.View(0), core.Config{Snapshots: true, Incremental: true})
			for v := 1; v <= depth; v++ {
				backend.Update("k", v)
				if _, err := backend.SnapshotPrepare(int64(v)); err != nil {
					b.Fatal(err)
				}
			}
			target := int64(depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := core.SnapshotAt(store, "bench", "k", target); !ok {
					b.Fatal("resolution failed")
				}
			}
		})
	}
}

// BenchmarkSnapshotWriteQueryable measures phase-1 snapshot cost in
// queryable per-key mode vs BenchmarkSnapshotWriteBlob in Jet blob mode,
// for 10K keys per instance — the write-side delta of Figure 10.
func BenchmarkSnapshotWriteQueryable(b *testing.B) {
	benchSnapshotWrite(b, core.Config{Snapshots: true})
}

// BenchmarkSnapshotWriteBlob is the Jet-baseline counterpart.
func BenchmarkSnapshotWriteBlob(b *testing.B) {
	benchSnapshotWrite(b, core.Config{JetBlob: true})
}

func benchSnapshotWrite(b *testing.B, cfg core.Config) {
	p := partition.New(partition.DefaultCount)
	store := kv.NewStore(p, partition.Assign(p.Count(), 1), nil)
	backend := core.NewBackend("bench", 0, store.View(0), cfg)
	for i := 0; i < 10_000; i++ {
		backend.Update(i, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.SnapshotPrepare(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotPin measures the in-barrier cost of the asynchronous
// phase-1: pinning the dirty set (1K hot keys out of 10K) without
// writing the version chains. The chain writes move to the drainer —
// BenchmarkSnapshotPrepareSync below is what the barrier paid before,
// with the same dirty set.
func BenchmarkSnapshotPin(b *testing.B) {
	p := partition.New(partition.DefaultCount)
	store := kv.NewStore(p, partition.Assign(p.Count(), 1), nil)
	backend := core.NewBackend("bench", 0, store.View(0), core.Config{Snapshots: true, Incremental: true})
	for i := 0; i < 10_000; i++ {
		backend.Update(i, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 1_000; k++ {
			backend.Update(k, int64(i))
		}
		b.StartTimer()
		pin, err := backend.SnapshotPin(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if pin != nil {
			backend.DrainPin(pin)
		}
		b.StartTimer()
	}
}

// BenchmarkSnapshotPrepareSync is the synchronous-phase-1 counterpart:
// the full prepare (chain writes included) on the barrier path, same 10K
// keys and 1K-key dirty set as BenchmarkSnapshotPin.
func BenchmarkSnapshotPrepareSync(b *testing.B) {
	p := partition.New(partition.DefaultCount)
	store := kv.NewStore(p, partition.Assign(p.Count(), 1), nil)
	backend := core.NewBackend("bench", 0, store.View(0), core.Config{Snapshots: true})
	for i := 0; i < 10_000; i++ {
		backend.Update(i, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 1_000; k++ {
			backend.Update(k, int64(i))
		}
		b.StartTimer()
		if _, err := backend.SnapshotPrepare(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}
