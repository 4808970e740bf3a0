package qcommerce

import (
	"testing"
	"testing/quick"
	"time"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/dataflow"
	"squery/internal/kv"
	"squery/internal/metrics"
	"squery/internal/sql"
)

func TestEventGeneratorDeterministicKeys(t *testing.T) {
	cfg := Config{Orders: 100, Riders: 10, SourceParallelism: 2}
	f := func(rawSeq uint16, rawInst uint8) bool {
		seq := int64(rawSeq)
		inst := int(rawInst) % 2
		e1 := EventAt(cfg, inst, seq)
		e2 := EventAt(cfg, inst, seq)
		// Keys and payload kind must be deterministic (timestamps are
		// generated at emit time and may differ).
		if e1.OrderKey != e2.OrderKey || e1.RiderKey != e2.RiderKey {
			return false
		}
		if (e1.Info != nil) != (e2.Info != nil) || (e1.Status != nil) != (e2.Status != nil) {
			return false
		}
		// Exactly one payload set, and the matching key with it.
		n := 0
		if e1.Info != nil {
			n++
		}
		if e1.Status != nil {
			n++
		}
		if e1.Rider != nil {
			n++
		}
		if n != 1 {
			return false
		}
		if e1.Rider != nil {
			return e1.RiderKey != "" && e1.OrderKey == ""
		}
		return e1.OrderKey != "" && e1.RiderKey == ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratorCoversStatesAndZones(t *testing.T) {
	cfg := Config{Orders: 20, Riders: 5, SourceParallelism: 1}.withDefaults()
	states := map[string]bool{}
	zones := map[string]bool{}
	cats := map[string]bool{}
	for seq := int64(0); seq < 20*2*int64(len(OrderStates))*2; seq++ {
		ev := EventAt(cfg, 0, seq)
		if ev.Status != nil {
			states[ev.Status.OrderState] = true
		}
		if ev.Info != nil {
			zones[ev.Info.DeliveryZone] = true
			cats[ev.Info.VendorCategory] = true
		}
	}
	if len(states) != len(OrderStates) {
		t.Errorf("states covered = %d/%d: %v", len(states), len(OrderStates), states)
	}
	if len(zones) < 3 || len(cats) < 3 {
		t.Errorf("zones=%d cats=%d, want coverage", len(zones), len(cats))
	}
}

func TestQCommerceJobAndPaperQueries(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 3, Partitions: 27})
	cfg := Config{
		Orders:              60,
		Riders:              12,
		SourceParallelism:   2,
		OperatorParallelism: 2,
		// Long enough that the checkpoint below lands mid-stream even when
		// the host is loaded and this goroutine is slow to ask for it.
		Events: 40000,
	}
	hist := metrics.NewHistogram()
	dag := DAG(cfg, dataflow.LatencySinkVertex("sink", 2, hist))
	job, err := dataflow.Run(dag, dataflow.Config{
		Cluster: clu,
		State:   core.Config{Live: true, Snapshots: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	// Let state build, then checkpoint mid-stream.
	waitUntil(t, func() bool { return job.SourceMeter().Count() >= 2000 }, "records flowing")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	cat := core.NewCatalog(clu.Store())
	if err := cat.RegisterJob(job.Manager().Registry(), "orderinfo", "orderstate", "riderlocation"); err != nil {
		t.Fatal(err)
	}
	// State maps exist and have the expected shapes.
	view := clu.ClientView()
	infoKeys := 0
	view.Scan(core.LiveMapName("orderinfo"), func(e kv.Entry) bool {
		if _, ok := e.Value.(OrderInfo); !ok {
			t.Fatalf("orderinfo value type %T", e.Value)
		}
		infoKeys++
		return true
	})
	if infoKeys == 0 {
		t.Fatal("no orderinfo state")
	}
	stateKeys := 0
	view.Scan(core.LiveMapName("orderstate"), func(e kv.Entry) bool {
		st := e.Value.(OrderStatus)
		found := false
		for _, s := range OrderStates {
			if st.OrderState == s {
				found = true
			}
		}
		if !found {
			t.Fatalf("unknown order state %q", st.OrderState)
		}
		stateKeys++
		return true
	})
	if stateKeys == 0 {
		t.Fatal("no orderstate state")
	}
	// Rider updates are the rare event: on a loaded host their first
	// mirror batch may still be unflushed mid-stream, so poll for it.
	waitUntil(t, func() bool {
		riderKeys := 0
		view.Scan(core.LiveMapName("riderlocation"), func(kv.Entry) bool {
			riderKeys++
			return true
		})
		return riderKeys > 0
	}, "rider state")

	// All four production queries run against the snapshot and return
	// grouped counts.
	ex := sql.NewExecutor(cat, clu.Nodes())
	for i, q := range Queries {
		res, err := ex.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		for _, row := range res.Rows {
			if row[0].(int64) < 0 {
				t.Fatalf("query %d: negative count", i+1)
			}
			if row[1] == nil {
				t.Fatalf("query %d: nil group", i+1)
			}
		}
	}
	job.Wait()
}

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestIsLateFraction(t *testing.T) {
	cfg := Config{Orders: 1000, LateFraction: 0.25}.withDefaults()
	late := 0
	for o := int64(0); o < 1000; o++ {
		if isLate(cfg, o) {
			late++
		}
	}
	if late != 250 {
		t.Errorf("late = %d/1000, want 250", late)
	}
	cfgOff := Config{Orders: 10, LateFraction: -1}
	if isLate(cfgOff, 0) {
		t.Error("LateFraction<0 should disable lateness")
	}
}

func TestQueriesAreNonEmptyAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i, q := range Queries {
		if q == "" {
			t.Fatalf("query %d empty", i+1)
		}
		if seen[q] {
			t.Fatalf("query %d duplicates another", i+1)
		}
		seen[q] = true
	}
}
