package sql

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"squery/internal/core"
)

// discardSink binds a sink that drops every event.
func discardSink(*StandingQuery) func(SubEvent) { return func(SubEvent) {} }

// TestSubscribeSeedFailureReturns: a standing query whose evaluation
// fails during the snapshot seed — before the applier goroutine exists —
// must return the error instead of deadlocking in its own teardown
// (Close waits for an applier that was never started). Regression: this
// hung the REPL's \watch forever on a GROUP BY over a column the table
// doesn't carry.
func TestSubscribeSeedFailureReturns(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	f.ex.SetArrangements(core.NewArrangeRegistry(f.store))

	type res struct {
		sq  *StandingQuery
		err error
	}
	done := make(chan res, 1)
	go func() {
		sq, err := f.ex.SubscribeQuery(
			`SELECT COUNT(*), deliveryZone FROM orderstate GROUP BY deliveryZone`,
			discardSink)
		done <- res{sq, err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			// The dialect may legally evaluate a missing column as null;
			// then the subscription must simply work and tear down.
			r.sq.Close()
			t.Skip("seed did not fail; nothing to regress")
		}
		t.Logf("seed failure surfaced as: %v", r.err)
	case <-time.After(10 * time.Second):
		t.Fatal("SubscribeQuery deadlocked on a seed-time failure")
	}

	// The failed attach must not leak its arrangement: a fresh reader
	// starts from refs 0 (Infos drops torn-down arrangements).
	if infos := f.ex.arr.Infos(); len(infos) != 0 {
		t.Fatalf("failed subscribe leaked arrangements: %+v", infos)
	}
}

// foldedView is a subscriber's key → row view, folded from its events the
// way a consumer maintains it: a snapshot frame replaces the view, a delta
// frame patches it.
type foldedView struct {
	mu   sync.Mutex
	rows map[string][]any
	err  error
}

func newFoldedView() *foldedView { return &foldedView{rows: map[string][]any{}} }

func (v *foldedView) sink(*StandingQuery) func(SubEvent) {
	return func(ev SubEvent) {
		v.mu.Lock()
		defer v.mu.Unlock()
		if ev.Err != nil {
			v.err = ev.Err
			return
		}
		if ev.Snapshot {
			clear(v.rows)
		}
		for _, d := range ev.Deltas {
			if d.Delete {
				delete(v.rows, d.Key)
			} else {
				v.rows[d.Key] = d.Vals
			}
		}
	}
}

// canon renders the view as canon renders a result.
func (v *foldedView) canon() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	rows := make([][]any, 0, len(v.rows))
	for _, r := range v.rows {
		rows = append(rows, r)
	}
	return canon(rows, false)
}

// handed counts the deltas the arrangements of sq's tables have handed on
// since they were built. When every subscription attached before the
// writes began, that is what sq's watermark reaches once it has folded
// them all.
func handed(ex *Executor, sq *StandingQuery) uint64 {
	var n uint64
	for _, tb := range sq.Tables() {
		for _, a := range ex.arr.Infos() {
			if a.Table == core.LiveMapName(tb) {
				n += uint64(a.DeltasIn)
			}
		}
	}
	return n
}

// waitFolded waits until sq has folded want deltas into v.
func waitFolded(t *testing.T, sq *StandingQuery, v *foldedView, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sq.Watermark() < want {
		v.mu.Lock()
		err := v.err
		v.mu.Unlock()
		if err != nil {
			t.Fatalf("%s failed: %v", sq.Query(), err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s folded %d of %d deltas", sq.Query(), sq.Watermark(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// residentEntries counts the entries of every map held in v by value —
// struct fields, slice and array elements, and map values, including what
// a map value points to — but not through other pointers: for a
// StandingQuery that is every row or key it keeps resident, under whatever
// field name, and none of the executor's or the plan's.
func residentEntries(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Map:
		n = v.Len()
		for it := v.MapRange(); it.Next(); {
			e := it.Value()
			if e.Kind() == reflect.Pointer {
				e = e.Elem()
			}
			n += residentEntries(e)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += residentEntries(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += residentEntries(v.Field(i))
		}
	}
	return n
}

// TestStandingQueryHoldsOutputOnly: a standing query keeps its output and,
// for a join, the join index of the rows that passed their side's pushed
// filter — nothing else per source row. Each case folds one update of
// every key of the fixture's tables, then counts what the standing query
// holds.
func TestStandingQueryHoldsOutputOnly(t *testing.T) {
	const n = 24
	zones := []string{"east", "west"}
	states := []string{"VENDOR_ACCEPTED", "NOTIFIED", "PICKED_UP"}
	for _, c := range []struct {
		name, query string
		update      func(f *fixture, i int, key string)
		resident    func(sq *StandingQuery) (got, want int)
	}{{
		// A filter matching none of the rows leaves no resident entry at
		// all: the arrangement is the only copy of the table on the push
		// path.
		name:  "empty filter",
		query: `SELECT partitionKey, customerLat FROM orderinfo WHERE deliveryZone = 'nowhere'`,
		update: func(f *fixture, i int, key string) {
			f.info.Update(key, orderInfo{DeliveryZone: "east", CustomerLat: float64(i)})
		},
		resident: func(sq *StandingQuery) (int, int) {
			return residentEntries(reflect.ValueOf(sq).Elem()), 0
		},
	}, {
		// orderState is orderstate's column alone, so the WHERE pushes to
		// that side: its join index holds the third of the rows in
		// PICKED_UP, not every order. The other side holds all n, and each
		// matching pair is one output row.
		name:   "join pushed to one side",
		query:  `SELECT i.deliveryZone, s.orderState FROM orderinfo i JOIN orderstate s USING(partitionKey) WHERE orderState = 'PICKED_UP'`,
		update: func(f *fixture, i int, key string) { f.state.Update(key, orderState{OrderState: states[(i+1)%3]}) },
		resident: func(sq *StandingQuery) (int, int) {
			if got := residentEntries(reflect.ValueOf(sq.jindex[1])); got != n/3 {
				return got, n / 3
			}
			return residentEntries(reflect.ValueOf(sq).Elem()), n + n/3 + n/3
		},
	}, {
		// A group is its accumulators: one entry per group, plus one per
		// distinct value in its MAX multiset. The 18 member rows (east holds
		// 62 six times, west 61 and 63 six times each) leave nothing behind.
		name:  "group by",
		query: `SELECT deliveryZone, COUNT(*), MAX(customerLat) FROM orderinfo WHERE customerLat > 60 GROUP BY deliveryZone`,
		update: func(f *fixture, i int, key string) {
			f.info.Update(key, orderInfo{DeliveryZone: zones[i%2], CustomerLat: 60 + float64(i%4)})
		},
		resident: func(sq *StandingQuery) (int, int) {
			got := residentEntries(reflect.ValueOf(sq).Elem())
			for _, g := range sq.groups {
				for _, a := range g.pg.accs {
					got += len(a.multi)
				}
			}
			return got, len(zones) + 3
		},
	}} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, n, liveSnapCfg())
			f.ex.SetArrangements(core.NewArrangeRegistry(f.store))
			v := newFoldedView()
			sq, err := f.ex.SubscribeQuery(c.query, v.sink)
			if err != nil {
				t.Fatal(err)
			}
			defer sq.Close()
			for i := 0; i < n; i++ {
				c.update(f, i, fmt.Sprintf("order-%d", i))
			}
			f.info.Flush()
			f.state.Flush()
			waitFolded(t, sq, v, n)
			res, err := f.ex.Query(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := v.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("folded view %v, one-shot %v", got, want)
			}
			sq.mu.Lock()
			defer sq.mu.Unlock()
			if got, want := c.resident(sq); got != want {
				t.Fatalf("standing query holds %d resident entries over %d source rows, want %d", got, n, want)
			}
		})
	}
}

// TestSubscribeSSIDPinOnLiveTable: an ssid pin selects a snapshot, and a
// live table has none — the planner strips the pin and reads live state.
// A standing query compiles through the same planner, so its snapshot
// frame is the one-shot result, every row.
func TestSubscribeSSIDPinOnLiveTable(t *testing.T) {
	const n = 12
	f := newFixture(t, n, liveSnapCfg())
	f.ex.SetArrangements(core.NewArrangeRegistry(f.store))
	q := fmt.Sprintf(`SELECT partitionKey FROM orderinfo WHERE ssid = %d`, f.checkpoint(t))
	res, err := f.ex.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	v := newFoldedView()
	sq, err := f.ex.SubscribeQuery(q, v.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()
	if got, want := v.canon(), canon(res.Rows, false); len(want) != n || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshot frame has %d rows, one-shot %d (want %d)", q, len(got), len(want), n)
	}
}

// TestSubscribeBeforeFirstWrite: a standing query over live tables no row
// has been written to binds no schema — compile samples nothing — so it
// evaluates every column by name, adapting each row's by-name view on
// first use. Through inserts, updates and deletes its folded view still
// equals the poll.
func TestSubscribeBeforeFirstWrite(t *testing.T) {
	f := newFixture(t, 0, liveSnapCfg())
	f.ex.SetArrangements(core.NewArrangeRegistry(f.store))
	queries := []string{
		`SELECT partitionKey, deliveryZone, customerLat FROM orderinfo WHERE customerLat > 55`,
		`SELECT deliveryZone, COUNT(*), MAX(customerLat) FROM orderinfo GROUP BY deliveryZone HAVING COUNT(*) > 1`,
		`SELECT i.deliveryZone, s.orderState FROM orderinfo i JOIN orderstate s USING(partitionKey) WHERE orderState = 'NOTIFIED'`,
	}
	sqs := make([]*StandingQuery, len(queries))
	views := make([]*foldedView, len(queries))
	for i, q := range queries {
		views[i] = newFoldedView()
		sq, err := f.ex.SubscribeQuery(q, views[i].sink)
		if err != nil {
			t.Fatal(err)
		}
		defer sq.Close()
		for _, s := range sq.pp.srcs {
			if s.schema != nil {
				t.Fatalf("%s: bound %s to a schema before its first write", q, s.name)
			}
		}
		sqs[i] = sq
	}
	zones := []string{"north", "south", "east"}
	states := []string{"VENDOR_ACCEPTED", "NOTIFIED", "PICKED_UP"}
	for round := 0; round < 2; round++ {
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("order-%d", i)
			f.info.Update(key, orderInfo{DeliveryZone: zones[(i+round)%3], CustomerLat: 50 + float64(i+round)})
			f.state.Update(key, orderState{OrderState: states[(i+round)%3]})
		}
	}
	for i := 0; i < 12; i += 4 {
		f.info.Delete(fmt.Sprintf("order-%d", i))
		f.state.Delete(fmt.Sprintf("order-%d", i+1))
	}
	f.info.Flush()
	f.state.Flush()
	for i, sq := range sqs {
		waitFolded(t, sq, views[i], handed(f.ex, sq))
		res, err := f.ex.Query(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := views[i].canon(), canon(res.Rows, false); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\n folded view %v\n poll        %v", queries[i], got, want)
		}
	}
}

// TestSubscribeKeysAreOneToOne: every output row of a standing query has
// its own SubDelta.Key, so a consumer's key → row view holds every row.
// Display keys used to join their components with a bare "|" and render
// NULL as "<nil>": the groups ('x|y', 'z') and ('x', 'y|z'), a NULL group
// and the text '<nil>', and the join rows ('a|b', 'c') and ('a', 'b|c')
// each shared one key, and one row silently replaced the other.
func TestSubscribeKeysAreOneToOne(t *testing.T) {
	f := newDiffFixture(t, 1, 0)
	f.ex.SetArrangements(core.NewArrangeRegistry(f.store))
	write := func() {
		for k, r := range map[string][2]any{
			"g1": {"x|y", "z"}, "g2": {"x", "y|z"},
			"g3": {nil, "w"}, "g4": {"<nil>", "w"},
			"g5": {`x\`, "|v"}, "g6": {`x\|`, "v"},
			"a|b": {"j", "J"}, "a": {"j", "J"},
		} {
			f.backends["dnote"].Update(k, map[string]any{"note": r[0], "zone": r[1], "weight": int64(1)})
		}
		for _, k := range []string{"c", "b|c"} {
			f.backends["dorder"].Update(k, dOrder{Zone: "J"})
		}
		f.backends["dnote"].Flush()
		f.backends["dorder"].Flush()
	}
	write()
	for _, c := range []struct {
		query string
		rows  int
	}{
		{`SELECT note, zone, COUNT(*) FROM dnote GROUP BY note, zone`, 7},
		{`SELECT n.note, o.zone FROM dnote n JOIN dorder o ON n.zone = o.zone`, 4},
	} {
		res, err := f.ex.Query(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.rows {
			t.Fatalf("%s: one-shot has %d rows, the fixture expects %d", c.query, len(res.Rows), c.rows)
		}
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(c.query, v.sink)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(v.rows); got != c.rows {
			t.Fatalf("%s: snapshot frame folds to %d rows, one-shot has %d", c.query, got, c.rows)
		}
		write() // rewrite every row: each output row is retracted and re-derived
		waitFolded(t, sq, v, handed(f.ex, sq))
		if got, want := v.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\n folded view %v\n one-shot    %v", c.query, got, want)
		}
		sq.Close()
	}
}
