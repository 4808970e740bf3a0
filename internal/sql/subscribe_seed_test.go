package sql

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
)

// discardSink binds a sink that drops every event.
func discardSink(*StandingQuery) func(SubEvent) { return func(SubEvent) {} }

// TestSubscribeSeedFailureReturns: a standing query whose evaluation
// fails during the snapshot seed — before it is live — must return the
// error, detached, instead of deadlocking in its own teardown (Close takes
// the lock the seed holds, which writers delivering to it may wait for). Regression: this hung the REPL's \watch forever on
// a GROUP BY over a column the table doesn't carry.
func TestSubscribeSeedFailureReturns(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())

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

	// The failed attach must not leak its tap: TapInfos reports only
	// tapped maps.
	if infos := f.store.TapInfos(); len(infos) != 0 {
		t.Fatalf("failed subscribe leaked taps: %+v", infos)
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

// handed counts the deltas the live maps of sq's tables have handed to
// their taps since their tap sets last filled. When every subscription
// attached before the writes began, that is what sq's watermark reaches
// once it has folded them all.
func handed(store *kv.Store, sq *StandingQuery) uint64 {
	var n uint64
	for _, tb := range sq.Tables() {
		for _, m := range store.TapInfos() {
			if m.Map == core.LiveMapName(tb) {
				n += uint64(m.Deltas)
			}
		}
	}
	return n
}

// mustHaveFolded asserts that sq has already folded exactly want deltas
// into v without failing. A standing query folds on the writer, so once
// the write (or the Flush) that handed them on has returned, there is
// nothing to wait for.
func mustHaveFolded(t *testing.T, sq *StandingQuery, v *foldedView, want uint64) {
	t.Helper()
	v.mu.Lock()
	err := v.err
	v.mu.Unlock()
	if err != nil {
		t.Fatalf("%s failed: %v", sq.Query(), err)
	}
	if got := sq.Watermark(); got != want {
		t.Fatalf("%s had folded %d of %d deltas when the write returned", sq.Query(), got, want)
	}
}

// residentEntries counts the entries of every map held in v by value —
// struct fields, slice and array elements, and map values, including what
// a map value points to — but not through other pointers: for a group it
// is every row or key it keeps resident, under whatever field name, and
// none of its template's, its handles' or the plan's.
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

// held counts what a template keeps resident per source row: its join
// index, if it has one, and each of the given handles' groups (once each).
func held(sqs ...*StandingQuery) int {
	n := residentEntries(reflect.ValueOf(sqs[0].g.t.jindex))
	seen := map[*group]bool{}
	for _, sq := range sqs {
		if !seen[sq.g] {
			seen[sq.g] = true
			n += residentEntries(reflect.ValueOf(sq.g).Elem())
		}
	}
	return n
}

// TestStandingQueryHoldsOutputOnly: a group keeps its output — nothing
// else per source row. A co-partitioned join keeps no join index either:
// it reads a row's partner from kv, under the partition lock its delivery
// holds, so its template files no row and its groups count no join key.
// Each case folds one update of every key of the fixture's tables, then
// counts what the groups and their template hold.
func TestStandingQueryHoldsOutputOnly(t *testing.T) {
	const n = 24
	zones := []string{"east", "west"}
	states := []string{"VENDOR_ACCEPTED", "NOTIFIED", "PICKED_UP"}
	joinOn := func(state string) string {
		return `SELECT i.deliveryZone, s.orderState FROM orderinfo i JOIN orderstate s USING(partitionKey) WHERE orderState = '` + state + `'`
	}
	for _, c := range []struct {
		name     string
		queries  []string
		update   func(f *fixture, i int, key string)
		resident func(sqs []*StandingQuery) (got, want int)
	}{{
		// A filter matching none of the rows leaves no resident entry at
		// all: the kv map is the only copy of the table on the push path.
		name:    "empty filter",
		queries: []string{`SELECT partitionKey, customerLat FROM orderinfo WHERE deliveryZone = 'nowhere'`},
		update: func(f *fixture, i int, key string) {
			f.info.Update(key, orderInfo{DeliveryZone: "east", CustomerLat: float64(i)})
		},
		resident: func(sqs []*StandingQuery) (int, int) { return held(sqs...), 0 },
	}, {
		// orderState is orderstate's column alone, so the WHERE pushes to
		// that side, and is lifted. Neither side is filed: the group holds
		// its n/3 output rows, one per order in PICKED_UP, and nothing else.
		name:    "join pushed to one side",
		queries: []string{joinOn("PICKED_UP")},
		update:  func(f *fixture, i int, key string) { f.state.Update(key, orderState{OrderState: states[(i+1)%3]}) },
		resident: func(sqs []*StandingQuery) (int, int) {
			if got := residentEntries(reflect.ValueOf(sqs[0].g.t.jindex)); got != 0 {
				return got, 0
			}
			return held(sqs...), n / 3
		},
	}, {
		// Three joins that differ only in the lifted literal share one
		// template, which files no row of either side: each row is one
		// group's output row, and that is all the groups hold.
		name:    "joins differing in the lifted literal",
		queries: []string{joinOn(states[0]), joinOn(states[1]), joinOn(states[2])},
		update:  func(f *fixture, i int, key string) { f.state.Update(key, orderState{OrderState: states[(i+1)%3]}) },
		resident: func(sqs []*StandingQuery) (int, int) {
			if got := residentEntries(reflect.ValueOf(sqs[0].g.t.jindex)); got != 0 {
				return got, 0
			}
			return held(sqs...), n
		},
	}, {
		// A group is its accumulators: one entry per group, plus one per
		// distinct value in its MAX multiset. The 18 member rows (east holds
		// 62 six times, west 61 and 63 six times each) leave nothing behind.
		name:    "group by",
		queries: []string{`SELECT deliveryZone, COUNT(*), MAX(customerLat) FROM orderinfo WHERE customerLat > 60 GROUP BY deliveryZone`},
		update: func(f *fixture, i int, key string) {
			f.info.Update(key, orderInfo{DeliveryZone: zones[i%2], CustomerLat: 60 + float64(i%4)})
		},
		resident: func(sqs []*StandingQuery) (int, int) {
			got := held(sqs...)
			for _, g := range sqs[0].g.groups {
				for _, a := range g.pg.accs {
					got += len(a.multi)
				}
			}
			return got, len(zones) + 3
		},
	}} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, n, liveSnapCfg())
			sqs := make([]*StandingQuery, len(c.queries))
			views := make([]*foldedView, len(c.queries))
			for i, q := range c.queries {
				views[i] = newFoldedView()
				sq, err := f.ex.SubscribeQuery(q, views[i].sink)
				if err != nil {
					t.Fatal(err)
				}
				defer sq.Close()
				sqs[i] = sq
			}
			if sqs[0].g.t != sqs[len(sqs)-1].g.t {
				t.Fatal("queries differing only in a lifted literal compiled to two templates")
			}
			for i := 0; i < n; i++ {
				c.update(f, i, fmt.Sprintf("order-%d", i))
			}
			f.info.Flush()
			f.state.Flush()
			for i, q := range c.queries {
				mustHaveFolded(t, sqs[i], views[i], handed(f.store, sqs[i]))
				res, err := f.ex.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := views[i].canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: folded view %v, one-shot %v", q, got, want)
				}
			}
			tpl := sqs[0].g.t
			tpl.mu.Lock()
			defer tpl.mu.Unlock()
			if got, want := c.resident(sqs); got != want {
				t.Fatalf("standing queries hold %d resident entries over %d source rows, want %d", got, n, want)
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
		for _, s := range sq.g.t.pp.srcs {
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
		mustHaveFolded(t, sq, views[i], handed(f.store, sq))
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
		mustHaveFolded(t, sq, v, handed(f.store, sq))
		if got, want := v.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\n folded view %v\n one-shot    %v", c.query, got, want)
		}
		sq.Close()
	}
}

// TestTemplateKeyIsStructural: two statements share a template only when
// their plans are the same tree. Rendered, these two pushed filters read
// alike — ((deliveryZone LIKE 'x') AND (vendorCategory LIKE 'y') AND
// (partitionKey LIKE 'order-1')) — because a LIKE pattern prints its quotes
// unescaped, but they are different filters with different answers. Each
// must get its own template, and its snapshot frame its own one-shot
// result.
func TestTemplateKeyIsStructural(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	f.info.Update("order-1", orderInfo{DeliveryZone: "x') AND (vendorCategory LIKE 'y", VendorCategory: "any"})
	f.info.Update("order-2", orderInfo{DeliveryZone: "x", VendorCategory: "y') AND (partitionKey LIKE 'order-1"})
	f.info.Flush()
	queries := []string{
		`SELECT partitionKey FROM orderinfo WHERE deliveryZone LIKE 'x'') AND (vendorCategory LIKE ''y' AND partitionKey LIKE 'order-1'`,
		`SELECT partitionKey FROM orderinfo WHERE deliveryZone LIKE 'x' AND vendorCategory LIKE 'y'') AND (partitionKey LIKE ''order-1'`,
	}
	var sqs []*StandingQuery
	var results [][]string
	for _, q := range queries {
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
		want := canon(res.Rows, false)
		if got := v.canon(); len(want) != 1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\n snapshot frame %v\n one-shot       %v (want one row)", q, got, want)
		}
		sqs = append(sqs, sq)
		results = append(results, want)
	}
	if reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("the two statements answer alike (%v): the fixture no longer tells them apart", results[0])
	}
	if sqs[0].g.t == sqs[1].g.t {
		t.Fatal("two different pushed filters share one template")
	}
}

// TestTemplateGroupCloseLeavesOthers: closing the last handle of one group
// of a join template takes that group's entries out of the shared join
// index — visiting only the join keys it filed them under — and nothing of
// the other groups', which fold on and match the one-shot result. The join
// is on zone, not on the partition key, so the template keeps a join index.
func TestTemplateGroupCloseLeavesOthers(t *testing.T) {
	f := newDiffFixture(t, 1, 60)
	f.liveOnly = true
	amounts := []int64{3, 4, 7}
	var sqs []*StandingQuery
	var views []*foldedView
	for _, a := range amounts {
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(fmt.Sprintf(`SELECT o.partitionKey, n.note FROM dorder o JOIN dnote n ON o.zone = n.zone WHERE o.amount = %d`, a), v.sink)
		if err != nil {
			t.Fatal(err)
		}
		defer sq.Close()
		sqs, views = append(sqs, sq), append(views, v)
	}
	tpl := sqs[0].g.t
	if sqs[1].g.t != tpl || sqs[2].g.t != tpl {
		t.Fatal("joins differing only in a lifted literal compiled to two templates")
	}
	f.write(40)
	closed := sqs[0].g
	sqs[0].Close()
	want := 0
	for _, r := range f.tables["dorder"].live {
		if r["amount"] == amounts[1] || r["amount"] == amounts[2] {
			want++
		}
	}
	if want == 0 {
		t.Fatal("no order holds the two remaining amounts: the fixture no longer exercises the index")
	}
	tpl.mu.Lock()
	filed := 0
	for _, es := range tpl.jindex[0] {
		for _, e := range es {
			if e.g == closed {
				t.Fatalf("the closed group's entry %s is still in the join index", e.ks)
			}
			filed++
		}
	}
	if filed != want || closed.jkeys[0] != nil {
		t.Fatalf("after one of three groups closed the join index holds %d entries, want %d", filed, want)
	}
	tpl.mu.Unlock()
	f.write(40)
	for i := 1; i < len(sqs); i++ {
		mustMatchOneShot(t, f, sqs[i].Query(), views[i], sqs[i].Query())
	}
}

// TestSubscribeWatermarkCountsFromAttach: a handle that joins a live group
// reports the deltas folded since it joined, not since the group started;
// the group's first handle keeps counting from its own attach.
func TestSubscribeWatermarkCountsFromAttach(t *testing.T) {
	const n = 12
	f := newFixture(t, n, liveSnapCfg())
	const q = `SELECT partitionKey, customerLat FROM orderinfo WHERE deliveryZone = 'east'`
	write := func(lat float64) {
		for i := 0; i < n; i++ {
			f.info.Update(fmt.Sprintf("order-%d", i), orderInfo{DeliveryZone: "east", CustomerLat: lat})
		}
		f.info.Flush()
	}
	view := newFoldedView()
	first, err := f.ex.SubscribeQuery(q, view.sink)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	write(1)
	var joinedAt uint64
	joiner, err := f.ex.SubscribeQuery(q, func(*StandingQuery) func(SubEvent) {
		return func(ev SubEvent) {
			if ev.Snapshot {
				joinedAt = ev.Watermark
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if joiner.g != first.g {
		t.Fatal("the same statement did not join the live group")
	}
	before := handed(f.store, first)
	write(2)
	mustHaveFolded(t, first, view, handed(f.store, first))
	if joinedAt != 0 {
		t.Fatalf("the joiner's snapshot frame reports watermark %d, want 0", joinedAt)
	}
	if got, want := joiner.Watermark(), handed(f.store, first)-before; got != want || want != n {
		t.Fatalf("the joiner's watermark is %d, want the %d deltas since it joined", got, want)
	}
}

// TestTemplatePinsSharedSideInstant: in a join whose side without slots
// pushes a filter reading LOCALTIMESTAMP, that side is filed once for all
// the template's groups, filtered at one instant — so the template is keyed
// by the instant, and two subscriptions made at two instants get two
// templates. Each folds to its one-shot result.
func TestTemplatePinsSharedSideInstant(t *testing.T) {
	const n = 12
	f := newFixture(t, n, liveSnapCfg())
	zones := []string{"east", "west"}
	late := []time.Time{time.Now().Add(-time.Hour), time.Now().Add(time.Hour)}
	write := func(round int) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("order-%d", i)
			f.info.Update(key, orderInfo{DeliveryZone: zones[(i+round)%2]})
			f.state.Update(key, orderState{OrderState: "NOTIFIED", LateTimestamp: late[(i/2+round)%2]})
		}
		f.info.Flush()
		f.state.Flush()
	}
	write(0)
	var sqs []*StandingQuery
	var views []*foldedView
	for _, z := range zones {
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(`SELECT i.deliveryZone, s.orderState FROM orderinfo i JOIN orderstate s USING(partitionKey) WHERE deliveryZone = '`+z+`' AND lateTimestamp < LOCALTIMESTAMP`, v.sink)
		if err != nil {
			t.Fatal(err)
		}
		defer sq.Close()
		if tpl := sq.g.t; len(tpl.slots[0]) != 1 || !tpl.pp.pinsInstant(tpl.slots) {
			t.Fatalf("%s: want deliveryZone lifted and the template keyed by its instant", sq.Query())
		}
		sqs, views = append(sqs, sq), append(views, v)
	}
	if sqs[0].g.t == sqs[1].g.t {
		t.Fatal("two subscriptions at two instants share a template that filters its shared side at one")
	}
	write(1)
	for i, sq := range sqs {
		mustHaveFolded(t, sq, views[i], handed(f.store, sq))
		res, err := f.ex.Query(sq.Query())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := views[i].canon(), canon(res.Rows, false); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\n folded view %v\n one-shot    %v", sq.Query(), got, want)
		}
	}
}
