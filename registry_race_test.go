package squery

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"squery/internal/metrics"
)

// TestRegistryConcurrentReadersAndWriters hammers one registry from many
// writer goroutines — creating and bumping instruments, appending events —
// while readers take snapshots (history captures, Values, Dump, the
// Prometheus exposition) and a separate set of goroutines scans
// sys.partitions through the full SQL path of a live engine sharing the
// same registry. Every goroutine runs a fixed number of operations, and the
// writers create fresh instruments to the end, so series-table rebuilds
// race the readers. Run under -race this is the regression wall for every
// lock in the metrics layer.
func TestRegistryConcurrentReadersAndWriters(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 16})
	reg := eng.Metrics()
	if reg == nil {
		t.Fatal("engine registry is nil")
	}

	const (
		writers    = 8
		readers    = 4
		sqlReaders = 3
		writerOps  = 4000
		readerOps  = 10
		sqlOps     = 20
	)
	start := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: mix of hot-path instrument reuse and fresh-instrument
	// creation, so the map-grow path and table rebuilds race readers too.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hot := reg.Counter("race", fmt.Sprintf("w%d", w), "hits")
			hist := reg.Histogram("race", fmt.Sprintf("w%d", w), "lat")
			log := reg.Log("race-events", 64)
			<-start
			for i := 0; i < writerOps; i++ {
				hot.Inc()
				hist.Record(time.Duration(i%1000) * time.Microsecond)
				reg.Gauge("race", fmt.Sprintf("w%d/%d", w, i%17), "g").Set(int64(i))
				if i%32 == 0 {
					log.Append(map[string]any{"writer": w, "i": i})
					reg.Counter("race", fmt.Sprintf("w%d/fresh%d", w, i), "n").Inc()
				}
			}
		}(w)
	}

	// Snapshot readers: every read API.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < readerOps; i++ {
				reg.Capture(time.Now())
				_ = reg.History()
				_ = reg.Values("race")
				_ = reg.HistogramsIn("race")
				_ = reg.Dump()
				_ = reg.PrometheusText()
				_ = reg.Log("race-events", 64).Events()
			}
		}()
	}

	// SQL readers: the system tables read the same registry through the
	// executor's scan machinery.
	errs := make(chan error, sqlReaders)
	for r := 0; r < sqlReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < sqlOps; i++ {
				if _, err := eng.Query(`SELECT COUNT(*), SUM(sets) FROM sys.partitions`); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Query(`SELECT COUNT(*) FROM sys.operators`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	close(start)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("concurrent sys.* query failed: %v", err)
	default:
	}

	// Sanity: the writers' counters are all visible and self-consistent.
	vals := reg.Values("race")
	for w := 0; w < writers; w++ {
		if got := vals[fmt.Sprintf("w%d", w)]["hits"]; got != writerOps {
			t.Fatalf("writer %d recorded %d hits, want %d", w, got, writerOps)
		}
	}
}

// TestRegistrySnapshotIsolation checks that a Values snapshot taken
// mid-write is internally consistent: instruments never go backwards
// between two snapshots.
func TestRegistrySnapshotIsolation(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("iso", "a", "n")
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
			}
		}
	}()
	var last int64
	for i := 0; i < 1000; i++ {
		v := reg.Values("iso")["a"]["n"]
		if v < last {
			t.Fatalf("counter went backwards: %d -> %d", last, v)
		}
		last = v
	}
	close(stop)
	<-done
}
