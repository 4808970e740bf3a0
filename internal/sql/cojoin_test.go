package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"squery/internal/core"
)

// TestCoJoinAttachUnderWriters: co-partitioned standing joins read a row's
// partner from kv under the partition lock the delivering writer or the
// seeding attach holds, so attaches race writers on every partition they
// seed. Four goroutines update and delete the same keys of both tables
// while co-partitioned join subscriptions — lifted literals sharing a
// template, an aggregate, the ON form and a self-join — attach and close
// in a loop; once the writers stop, every open view must equal the one-shot
// result. A path that takes a partition lock it already holds (a seed
// probing through the locking Lookup) hangs it behind a waiting writer.
func TestCoJoinAttachUnderWriters(t *testing.T) {
	const keys, writers, rounds = 24, 4, 40
	f := newFixtureOn(t, keys, 8, liveSnapCfg())
	queries := []string{
		`SELECT i.deliveryZone, s.orderState FROM orderinfo i JOIN orderstate s USING(partitionKey) WHERE orderState = 'NOTIFIED'`,
		`SELECT i.deliveryZone, s.orderState FROM orderinfo i JOIN orderstate s USING(partitionKey) WHERE orderState = 'PICKED_UP'`,
		`SELECT s.orderState, COUNT(*), MAX(i.customerLat) FROM orderinfo i JOIN orderstate s USING(partitionKey) GROUP BY s.orderState`,
		`SELECT i.partitionKey, i.customerLat FROM orderinfo i JOIN orderstate s ON i.partitionKey = s.partitionKey WHERE i.deliveryZone = 'north' AND s.orderState <> 'VENDOR_ACCEPTED'`,
		`SELECT a.partitionKey, b.orderState FROM orderstate a JOIN orderstate b USING(partitionKey) WHERE b.orderState = 'NOTIFIED'`,
	}
	zones := []string{"north", "south"}
	states := []string{"VENDOR_ACCEPTED", "NOTIFIED", "PICKED_UP"}
	info, state := core.LiveMapName("orderinfo"), core.LiveMapName("orderstate")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := f.store.View(w % 3)
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("order-%d", rng.Intn(keys))
				switch r := rng.Intn(10); {
				case r == 0:
					v.Delete(info, key)
				case r == 1:
					v.Delete(state, key)
				case r < 6:
					v.Put(info, key, orderInfo{DeliveryZone: zones[rng.Intn(2)], CustomerLat: float64(50 + rng.Intn(20))})
				default:
					v.Put(state, key, orderState{OrderState: states[rng.Intn(3)]})
				}
			}
		}(w)
	}

	type open struct {
		q    string
		sq   *StandingQuery
		view *foldedView
	}
	var subs []open
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < rounds; r++ {
		if len(subs) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(subs))
			subs[i].sq.Close()
			subs = append(subs[:i], subs[i+1:]...)
		}
		q := queries[rng.Intn(len(queries))]
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(q, v.sink)
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("%v\n%s", err, q)
		}
		subs = append(subs, open{q, sq, v})
	}
	close(stop)
	wg.Wait()
	for i, s := range subs {
		s.view.mu.Lock()
		err := s.view.err
		s.view.mu.Unlock()
		if err != nil {
			t.Fatalf("subscription %d failed: %v\n%s", i, err, s.q)
		}
		res, err := f.ex.Query(s.q)
		if err != nil {
			t.Fatalf("%v\n%s", err, s.q)
		}
		if got, want := s.view.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("subscription %d: folded view disagrees with the one-shot result\n%s\n got  %v\n want %v", i, s.q, got, want)
		}
		s.sq.Close()
	}
}
