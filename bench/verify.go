package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"squery"
	"squery/internal/qcommerce"
)

// Output verification, run after every window with the source held and the
// pipeline drained. Each check is one attempted operation; a mismatch is a
// failed one and makes the run incorrect.

type tally struct {
	kind              string
	attempted, failed int64
	firstErr          error
}

func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// liveState is every live row of the three tables, read through the
// direct-object interface: the verifier's reference for SQL results.
type liveState struct {
	info   map[string]OrderInfo
	status map[string]OrderState
	rider  map[string]RiderLocation
}

func (e *env) scanLive() liveState {
	ls := liveState{
		info:   make(map[string]OrderInfo, e.g.orders),
		status: make(map[string]OrderState, e.g.orders),
		rider:  make(map[string]RiderLocation, e.g.riders),
	}
	e.eng.Object("orderinfo").ScanLive(func(k squery.Key, v any) bool {
		ls.info[k.(string)] = v.(OrderInfo)
		return true
	})
	e.eng.Object("orderstate").ScanLive(func(k squery.Key, v any) bool {
		ls.status[k.(string)] = v.(OrderState)
		return true
	})
	e.eng.Object("riderlocation").ScanLive(func(k squery.Key, v any) bool {
		ls.rider[k.(string)] = v.(RiderLocation)
		return true
	})
	return ls
}

// verifyState checks (a): every generated key's final live value is the
// generator's last value for it, and COUNT(*) per table equals the
// distinct keys generated.
func (e *env) verifyState(ls liveState, t *tally) {
	g := e.g
	var bad []string
	note := func(format string, args ...any) {
		if len(bad) < 3 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	wrong := 0
	for i := 0; i < g.orders; i++ {
		key := g.keyStrs[kInfo][i]
		got, ok := ls.info[key]
		want := info(i, got.StampNs, g.lastSeq[kInfo][i])
		if !ok || got != want {
			wrong++
			note("orderinfo[%s] = %+v, want %+v", key, got, want)
		}
		st, ok := ls.status[key]
		wantState := qcommerce.OrderStates[statusStep(i, g.statusN[i])]
		if !ok || st.Seq != g.lastSeq[kStatus][i] || st.OrderState != wantState || !st.LateTimestamp.Equal(lateStamp(i)) {
			wrong++
			note("orderstate[%s] = %+v, want state %s seq %d", key, st, wantState, g.lastSeq[kStatus][i])
		}
	}
	for i := 0; i < g.riders; i++ {
		key := g.keyStrs[kRider][i]
		got, ok := ls.rider[key]
		want := rider(i, got.StampNs, g.lastSeq[kRider][i])
		if !ok || got.Seq != want.Seq || got.Lat != want.Lat || got.Lon != want.Lon || !got.UpdatedAt.Equal(want.UpdatedAt) {
			wrong++
			note("riderlocation[%s] = %+v, want %+v", key, got, want)
		}
	}
	var err error
	if wrong > 0 {
		err = fmt.Errorf("%d keys hold a wrong final value: %s", wrong, strings.Join(bad, "; "))
	}
	t.check(err)
	for k := kind(0); k < nKinds; k++ {
		want := int64(len(g.keys[k]))
		res, qerr := e.eng.Query(`SELECT COUNT(*) FROM ` + tableOf[k])
		switch {
		case qerr != nil:
			t.check(qerr)
		case len(res.Rows) != 1 || toInt(res.Rows[0][0]) != want:
			t.check(fmt.Errorf("COUNT(*) of %s = %v, want %d", tableOf[k], res.Rows, want))
		default:
			t.check(nil)
		}
	}
}

// rowsOf renders a result as sorted lines so that two results compare as
// multisets whatever order the executor produced them in.
func rowsOf(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = renderVals(r)
	}
	sort.Strings(out)
	return out
}

// renderVals prints one row. Numbers print as integers (COUNT and MAX may
// come back as int64 from one evaluator and float64 from another) and
// times as their Unix seconds.
func renderVals(vals []any) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte('|')
		}
		switch x := v.(type) {
		case string:
			b.WriteString(x)
		case time.Time:
			fmt.Fprint(&b, x.Unix())
		case int, int64, uint64, float64:
			fmt.Fprint(&b, toInt(x))
		default:
			fmt.Fprint(&b, x)
		}
	}
	return b.String()
}

func sameRows(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %q, want %q", what, got[i], want[i])
		}
	}
	return nil
}

// verifyLiveQueries checks the live half of (b): one query of each class
// against a naive evaluation over the scanned rows.
func (e *env) verifyLiveQueries(ls liveState, t *tally) {
	g := e.g
	run := func(what, text string, want []string) {
		res, err := e.eng.Query(text)
		if err != nil {
			t.check(fmt.Errorf("%s: %w", what, err))
			return
		}
		t.check(sameRows(what, rowsOf(res.Rows), want))
	}
	// Point read of the hottest order.
	key := g.keyStrs[kStatus][scatter(0, g.orders)]
	st := ls.status[key]
	run("point read", `SELECT orderState, seq FROM orderstate WHERE partitionKey='`+key+`'`,
		[]string{renderVals([]any{st.OrderState, st.Seq})})

	// Hash-index equality.
	v := int(g.seed % vendors)
	var want []string
	for k, in := range ls.info {
		if in.Vendor == vendorName(v) {
			want = append(want, renderVals([]any{k, in.DeliveryZone}))
		}
	}
	sort.Strings(want)
	run("index equality read", `SELECT partitionKey, deliveryZone FROM orderinfo WHERE vendor = '`+vendorName(v)+`'`, want)

	// B-tree range over the most recent writes.
	from := e.p.emitted.Load() - rangeWindow
	want = want[:0]
	for k, s := range ls.status {
		if s.Seq >= from {
			want = append(want, renderVals([]any{k, s.OrderState, s.Seq}))
		}
	}
	sort.Strings(want)
	run("index range read", fmt.Sprintf(`SELECT partitionKey, orderState, seq FROM orderstate WHERE seq >= %d`, from), want)

	// Full scan with a grouped aggregate.
	byZone := map[string]int64{}
	for _, in := range ls.info {
		if in.VendorCategory == scanCategory {
			byZone[in.DeliveryZone]++
		}
	}
	want = want[:0]
	for z, n := range byZone {
		want = append(want, renderVals([]any{n, z}))
	}
	sort.Strings(want)
	run("scan", scanQuery, want)

	// Direct-object read.
	keys := make([]squery.Key, objectKeys)
	for i := range keys {
		keys[i] = g.keys[kRider][(int(g.seed)+i*37)%g.riders]
	}
	var err error
	for i, got := range e.eng.Object("riderlocation").GetLive(keys...) {
		if r, ok := got.(RiderLocation); !ok || r.Seq != ls.rider[keys[i].(string)].Seq {
			err = fmt.Errorf("object read of %v = %+v, want seq %d", keys[i], got, ls.rider[keys[i].(string)].Seq)
		}
	}
	t.check(err)
}

// verifySnapshotQueries checks the snapshot half of (b). It commits a
// snapshot, runs the paper's four queries pinned to it, compares each with
// a naive join over ScanSnapshot rows, lets the pipeline write on without
// checkpointing, and requires the pinned re-run to return identical rows.
func (e *env) verifySnapshotQueries(t *tally) {
	if err := e.checkpoint(0); err != nil {
		t.check(err)
		return
	}
	ssid := e.job.LatestSnapshotID()
	infos := map[string]OrderInfo{}
	states := map[string]OrderState{}
	err := e.eng.Object("orderinfo").ScanSnapshot(ssid, func(k squery.Key, v any, _ int64) bool {
		infos[k.(string)] = v.(OrderInfo)
		return true
	})
	if err == nil {
		err = e.eng.Object("orderstate").ScanSnapshot(ssid, func(k squery.Key, v any, _ int64) bool {
			states[k.(string)] = v.(OrderState)
			return true
		})
	}
	if err != nil {
		t.check(fmt.Errorf("scan of snapshot %d: %w", ssid, err))
		return
	}
	now := time.Now()
	preds := []struct {
		match func(OrderState) bool
		group func(OrderInfo) string
	}{
		{func(s OrderState) bool { return s.OrderState == "VENDOR_ACCEPTED" && s.LateTimestamp.Before(now) },
			func(i OrderInfo) string { return i.DeliveryZone }},
		{func(s OrderState) bool { return s.OrderState == "NOTIFIED" || s.OrderState == "ACCEPTED" },
			func(i OrderInfo) string { return i.VendorCategory }},
		{func(s OrderState) bool { return s.OrderState == "VENDOR_ACCEPTED" },
			func(i OrderInfo) string { return i.DeliveryZone }},
		{func(s OrderState) bool {
			return s.OrderState == "PICKED_UP" || s.OrderState == "LEFT_PICKUP" || s.OrderState == "NEAR_CUSTOMER"
		}, func(i OrderInfo) string { return i.DeliveryZone }},
	}
	first := make([][]string, len(qcommerce.Queries))
	for qi, q := range qcommerce.Queries {
		res, err := e.eng.Query(pinned(q, ssid))
		if err != nil {
			t.check(fmt.Errorf("query %d at snapshot %d: %w", qi+1, ssid, err))
			continue
		}
		first[qi] = rowsOf(res.Rows)
		counts := map[string]int64{}
		for k, in := range infos {
			if s, ok := states[k]; ok && preds[qi].match(s) {
				counts[preds[qi].group(in)]++
			}
		}
		var want []string
		for grp, n := range counts {
			want = append(want, renderVals([]any{n, grp}))
		}
		sort.Strings(want)
		t.check(sameRows(fmt.Sprintf("query %d at snapshot %d", qi+1, ssid), first[qi], want))
	}
	// Further writes, no checkpoint: the snapshot must not move.
	if !e.p.drainTo(e.p.setPace(0, 0, 5000), 30*time.Second) {
		t.check(fmt.Errorf("writes after snapshot %d did not drain", ssid))
		return
	}
	if !e.job.SnapshotStillQueryable(ssid) {
		t.check(fmt.Errorf("snapshot %d was pruned with no checkpoint in between", ssid))
		return
	}
	for qi, q := range qcommerce.Queries {
		if first[qi] == nil {
			continue
		}
		res, err := e.eng.Query(pinned(q, ssid))
		if err != nil {
			t.check(fmt.Errorf("query %d re-run at snapshot %d: %w", qi+1, ssid, err))
			continue
		}
		t.check(sameRows(fmt.Sprintf("query %d re-run at snapshot %d after further writes", qi+1, ssid), rowsOf(res.Rows), first[qi]))
	}
}

// verifySubs checks (c): no subscription shed or resynced, and each one's
// folded view equals a final poll of its query. The pipeline is quiescent
// but the push path is asynchronous, so a view gets a few seconds to
// converge on the poll.
func (e *env) verifySubs(t *tally) {
	for _, s := range e.subs {
		st := s.sub.Stats()
		if st.Shed > 0 || st.Resyncs > 0 || st.Done {
			t.check(fmt.Errorf("subscription %q: shed %d frames, %d resyncs, ended=%v (%v)", s.spec.query, st.Shed, st.Resyncs, st.Done, s.sub.Err()))
			continue
		}
		res, err := e.eng.Query(s.spec.query)
		if err != nil {
			t.check(fmt.Errorf("poll of %q: %w", s.spec.query, err))
			continue
		}
		want := rowsOf(res.Rows)
		deadline := time.Now().Add(10 * time.Second)
		for {
			s.mu.Lock()
			rows := make([][]any, 0, len(s.view))
			for _, vals := range s.view {
				rows = append(rows, vals)
			}
			s.mu.Unlock()
			err = sameRows(fmt.Sprintf("folded view of %q", s.spec.query), rowsOf(rows), want)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.check(err)
	}
}
