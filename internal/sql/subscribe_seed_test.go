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

// filed counts the entries of side s's join indexes in a template.
func filed(t *template, s int) int {
	n := 0
	for _, ixs := range t.jx[s] {
		for _, ix := range ixs {
			for _, es := range ix.keys {
				n += len(es)
			}
		}
	}
	return n
}

// held counts what a template keeps resident per source row: its join
// indexes, if it has any, and each of the given handles' groups (once
// each).
func held(sqs ...*StandingQuery) int {
	n := filed(sqs[0].g.t, 0) + filed(sqs[0].g.t, 1)
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
			if got := filed(sqs[0].g.t, 0) + filed(sqs[0].g.t, 1); got != 0 {
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
			if got := filed(sqs[0].g.t, 0) + filed(sqs[0].g.t, 1); got != 0 {
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
// of a join template drops the join index of its side key that no other
// group reads, and nothing the other groups read, which fold on and match
// the one-shot result. The join is on zone, not on the partition key, so
// the template keeps join indexes: one per amount on dorder's side, and
// one on dnote's, which has no slots and which all three groups share.
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
	if got := filed(tpl, 0); len(tpl.jx[0]) != 2 || got != want {
		t.Fatalf("after one of three groups closed dorder's side holds %d indexes of %d entries, want 2 of %d", len(tpl.jx[0]), got, want)
	}
	if got, notes := filed(tpl, 1), len(f.tables["dnote"].live); len(tpl.jx[1]) != 1 || got != notes {
		t.Fatalf("dnote's shared side holds %d entries under %d tuples, want %d under one", got, len(tpl.jx[1]), notes)
	}
	tpl.mu.Unlock()
	f.write(40)
	for i := 1; i < len(sqs); i++ {
		mustMatchOneShot(t, f, sqs[i].Query(), views[i], sqs[i].Query())
	}
}

// TestJoinIndexFiledOnce: three general joins that share dorder's literal
// and differ in dstate's read one join index on dorder's side, so each
// order that passes is resident once, not once per group; dstate's side
// keeps one index per literal. Each view equals its one-shot result, and
// closing the groups one by one drops each index with its last reader.
func TestJoinIndexFiledOnce(t *testing.T) {
	f := newDiffFixture(t, 2, 60)
	f.liveOnly = true
	states := []string{"NEW", "ACCEPTED", "PICKED_UP"}
	var sqs []*StandingQuery
	var views []*foldedView
	for _, st := range states {
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(`SELECT o.partitionKey, s.partitionKey, s.state FROM dorder o JOIN dstate s ON o.late = s.late WHERE o.amount = 4 AND s.state = '`+st+`'`, v.sink)
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
	orders, matched := 0, 0
	for _, r := range f.tables["dorder"].live {
		if r["amount"] == int64(4) {
			orders++
		}
	}
	for i, sq := range sqs {
		mustMatchOneShot(t, f, sq.Query(), views[i], sq.Query())
		matched += len(views[i].canon())
	}
	if orders == 0 || matched == 0 {
		t.Fatalf("%d orders of amount 4 and %d joined rows: the fixture no longer exercises the shared index", orders, matched)
	}
	tpl.mu.Lock()
	if got := filed(tpl, 0); len(tpl.jx[0]) != 1 || got != orders {
		t.Fatalf("dorder's side holds %d entries under %d tuples for the %d orders of amount 4, want each once under one", got, len(tpl.jx[0]), orders)
	}
	if len(tpl.jx[1]) != len(states) {
		t.Fatalf("dstate's side holds %d indexes, want one per literal (%d)", len(tpl.jx[1]), len(states))
	}
	tpl.mu.Unlock()
	for i, sq := range sqs {
		sq.Close()
		tpl.mu.Lock()
		ix0, ix1 := len(tpl.jx[0]), len(tpl.jx[1])
		tpl.mu.Unlock()
		if last := i == len(sqs)-1; ix1 != len(sqs)-1-i || (ix0 == 0) != last {
			t.Fatalf("after %d of %d groups closed the sides hold %d and %d indexes", i+1, len(sqs), ix0, ix1)
		}
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

// TestTemplateSharedAcrossInstants: subscriptions that differ only in the
// instant they bind LOCALTIMESTAMP to share one template and its taps,
// with one group per instant, each equal to its one-shot result. A pushed
// filter that reads LOCALTIMESTAMP is tested at the instant of the group
// it serves — in a general join, of the join index it fills, whose side key
// then carries the instant, while the other side's index is shared.
func TestTemplateSharedAcrossInstants(t *testing.T) {
	t.Run("co-partitioned", func(t *testing.T) {
		const n = 12
		f := newFixture(t, n, liveSnapCfg())
		zones := []string{"east", "west", "east"}
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
			if tpl := sq.g.t; len(tpl.slots[0]) != 1 || !tpl.nowSide[1] {
				t.Fatalf("%s: want deliveryZone lifted and orderstate's filter reading the instant", sq.Query())
			}
			sqs, views = append(sqs, sq), append(views, v)
		}
		mustShareAcrossInstants(t, sqs)
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
	})
	t.Run("general", func(t *testing.T) {
		f := newDiffFixture(t, 3, 60)
		f.liveOnly = true
		const q = `SELECT o.partitionKey, s.partitionKey FROM dorder o JOIN dstate s ON o.late = s.late WHERE o.zone = 'east' AND s.late < LOCALTIMESTAMP`
		var sqs []*StandingQuery
		var views []*foldedView
		for i := 0; i < 2; i++ {
			v := newFoldedView()
			sq, err := f.ex.SubscribeQuery(q, v.sink)
			if err != nil {
				t.Fatal(err)
			}
			defer sq.Close()
			sqs, views = append(sqs, sq), append(views, v)
		}
		mustShareAcrossInstants(t, sqs)
		tpl := sqs[0].g.t
		tpl.mu.Lock()
		ix0, ix1 := len(tpl.jx[0][sqs[0].g.tuple[0]]), len(tpl.jx[1][""])
		tpl.mu.Unlock()
		if ix0 != 1 || ix1 != 2 {
			t.Fatalf("two instants read %d indexes on dorder's side and %d on dstate's, want 1 and 2", ix0, ix1)
		}
		f.write(40)
		for i := range sqs {
			mustMatchOneShot(t, f, q, views[i], fmt.Sprintf("subscription %d", i))
			if len(views[i].canon()) == 0 {
				t.Fatal("the join matched nothing: the fixture no longer exercises it")
			}
		}
	})
}

// mustShareAcrossInstants asserts that sqs share one template, each in a
// group of its own: every subscription binds the instant it was made at,
// and a subscription takes far longer than a clock tick.
func mustShareAcrossInstants(t *testing.T, sqs []*StandingQuery) {
	t.Helper()
	for i, a := range sqs {
		if a.g.t != sqs[0].g.t {
			t.Fatalf("%s and %s, differing only in literals and instants, compiled to two templates", sqs[0].Query(), a.Query())
		}
		for _, b := range sqs[:i] {
			if a.g == b.g {
				t.Fatalf("%s and %s, bound to two instants, share one group", b.Query(), a.Query())
			}
		}
	}
}
