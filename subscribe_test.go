package squery

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"squery/internal/core"
	"squery/internal/dataflow"
	"squery/internal/obshttp"
	"squery/internal/transport"
)

// applySubEvent folds one subscription event into a key→row view: a
// snapshot frame replaces the view, a delta frame patches it — exactly
// what a real consumer maintains.
func applySubEvent(view map[string][]any, ev SubEvent) {
	if ev.Snapshot {
		for k := range view {
			delete(view, k)
		}
	}
	for _, d := range ev.Deltas {
		if d.Delete {
			delete(view, d.Key)
		} else {
			view[d.Key] = d.Vals
		}
	}
}

// drainSub applies every already-queued event without blocking.
func drainSub(s *Subscription, view map[string][]any) {
	for {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				return
			}
			applySubEvent(view, ev)
		default:
			return
		}
	}
}

// viewString renders a view in mustQuery's format (sorted row prints), so
// subscription state and one-shot results compare directly.
func viewString(view map[string][]any) string {
	rows := make([]string, 0, len(view))
	for _, v := range view {
		rows = append(rows, fmt.Sprint(v))
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}

// subParityCase pairs a standing query with the one-shot statement that
// serves as its polling oracle.
type subParityCase struct {
	name   string
	sub    string
	oracle string
}

var subParityCases = []subParityCase{
	{
		name:   "filter-project",
		sub:    `SUBSCRIBE SELECT partitionKey, count, total FROM subtally WHERE count > 1`,
		oracle: `SELECT partitionKey, count, total FROM subtally WHERE count > 1`,
	},
	{
		name:   "group-agg",
		sub:    `SUBSCRIBE SELECT count, COUNT(*), SUM(total) FROM subtally GROUP BY count`,
		oracle: `SELECT count, COUNT(*), SUM(total) FROM subtally GROUP BY count`,
	},
	{
		name:   "having",
		sub:    `SUBSCRIBE SELECT count, SUM(total) FROM subtally GROUP BY count HAVING COUNT(*) > 2`,
		oracle: `SELECT count, SUM(total) FROM subtally GROUP BY count HAVING COUNT(*) > 2`,
	},
	{
		name:   "global-agg",
		sub:    `SUBSCRIBE SELECT COUNT(*), SUM(total), MIN(count) FROM subtally`,
		oracle: `SELECT COUNT(*), SUM(total), MIN(count) FROM subtally`,
	},
	{
		name:   "self-join",
		sub:    `SUBSCRIBE SELECT a.partitionKey, a.total, b.total FROM subtally a JOIN subtally b ON a.partitionKey = b.partitionKey WHERE b.total > 4`,
		oracle: `SELECT a.partitionKey, a.total, b.total FROM subtally a JOIN subtally b ON a.partitionKey = b.partitionKey WHERE b.total > 4`,
	},
	{
		// The join column is a value every update rewrites, on both sides:
		// each record moves its row to another join key, where it must
		// unlink from the partners of the old count and link to the new.
		name:   "value-join",
		sub:    `SUBSCRIBE SELECT a.partitionKey, b.partitionKey, a.total, b.total FROM subtally a JOIN subtally b ON a."count" = b."count" WHERE a.total >= b.total`,
		oracle: `SELECT a.partitionKey, b.partitionKey, a.total, b.total FROM subtally a JOIN subtally b ON a."count" = b."count" WHERE a.total >= b.total`,
	},
}

// converge drains a subscription until its maintained view equals the
// re-polled oracle (which may itself still be settling), or times out.
func converge(t *testing.T, eng *Engine, s *Subscription, view map[string][]any, c subParityCase) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		drainSub(s, view)
		want := mustQuery(t, eng, c.oracle)
		if viewString(view) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s did not converge to the polling oracle:\n sub:    %s\n oracle: %s",
				c.name, viewString(view), want)
		}
		select {
		case ev, ok := <-s.Events():
			if ok {
				applySubEvent(view, ev)
			}
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// subTallyRecords builds the three-phase workload: inserts, then updates
// + deletes + a re-insert (so standing queries see upserts and
// tombstones, and a join sees its join column move and joined rows go),
// then another update wave.
func subTallyRecords(keys int) (recs []Record, phase1 int) {
	for i := 0; i < 3*keys; i++ {
		recs = append(recs, Record{Key: i % keys, Value: i%5 + 1})
	}
	phase1 = len(recs)
	for _, k := range []int{0, 3, 7} {
		recs = append(recs, Record{Key: k, Value: 10})
	}
	recs = append(recs, Record{Key: 5, Value: -1}, Record{Key: 9, Value: -1})
	recs = append(recs, Record{Key: 9, Value: 3})
	for i := 0; i < keys; i++ {
		recs = append(recs, Record{Key: i, Value: 4})
	}
	return recs, phase1
}

// startSubTallyJob runs the subtally workload up to phase 1 and returns
// the controls to release the rest.
func startSubTallyJob(t *testing.T, eng *Engine, recs []Record, phase1 int) (release func(), finish func()) {
	t.Helper()
	var limit atomic.Int64
	done := make(chan struct{})
	src := &Vertex{
		Name:        "source",
		Kind:        KindSource,
		Parallelism: 1,
		NewSource: func(int, int) dataflow.SourceInstance {
			return &phasedParitySource{recs: recs, limit: &limit, done: done}
		},
	}
	var sunk atomic.Int64
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("subtally", 2, tallyFn)).
		AddVertex(SinkVertex("sink", 1, func(Record) { sunk.Add(1) })).
		Connect("source", "subtally", EdgePartitioned).
		Connect("subtally", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{Name: "subparity", State: StateConfig{Live: true}})
	if err != nil {
		t.Fatal(err)
	}
	limit.Store(int64(phase1))
	// >=, not ==: a post-join reschedule replays the source, so the sink
	// can legitimately count records twice.
	waitFor(t, func() bool { return sunk.Load() >= int64(phase1) }, "phase-1 records sunk")
	release = func() {
		limit.Store(int64(len(recs)))
		waitFor(t, func() bool { return sunk.Load() >= int64(len(recs)) }, "all records sunk")
	}
	finish = func() {
		limit.Store(int64(len(recs)))
		close(done)
		job.Wait()
		job.Stop()
	}
	return release, finish
}

// runSubscribeParity is the heart of the standing-query acceptance: for
// every supported query shape, a subscription's initial snapshot plus its
// applied deltas must equal the re-polled one-shot result — across
// updates, deletes and re-inserts, on the given transport.
func runSubscribeParity(t *testing.T, tr transport.Transport) {
	eng := New(Config{Nodes: 3, Partitions: 27, Transport: tr})
	defer eng.Close()
	recs, phase1 := subTallyRecords(12)
	release, finish := startSubTallyJob(t, eng, recs, phase1)
	defer finish()

	subs := make([]*Subscription, len(subParityCases))
	views := make([]map[string][]any, len(subParityCases))
	for i, c := range subParityCases {
		s, err := eng.Subscribe(c.sub)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		defer s.Close()
		subs[i] = s
		views[i] = map[string][]any{}
		// The first frame is the synchronously enqueued initial snapshot.
		select {
		case ev := <-s.Events():
			if !ev.Snapshot {
				t.Fatalf("%s: first frame is not a snapshot", c.name)
			}
			applySubEvent(views[i], ev)
		default:
			t.Fatalf("%s: no initial snapshot frame queued", c.name)
		}
		converge(t, eng, subs[i], views[i], c)
	}

	// The six standing queries over one table tap one map: 4
	// single-source + 2 self-joins = 8 taps on "subtally".
	arrs := eng.Arrangements()
	if len(arrs) != 1 || arrs[0].Table != "subtally" || arrs[0].Refs != 8 {
		t.Fatalf("arrangements = %+v, want one subtally arrangement with 8 refs", arrs)
	}

	// Phase 2+3: updates, deletes, re-insert, update wave — the deltas.
	release()
	for i, c := range subParityCases {
		converge(t, eng, subs[i], views[i], c)
	}

	// sys.* visibility: the standing plane is queryable like any state.
	subRows := mustQuery(t, eng, `SELECT subscription, policy FROM sys.subscriptions`)
	if got := strings.Count(subRows, "]"); got != len(subParityCases)+1 {
		t.Fatalf("sys.subscriptions has %d rows, want %d: %s", got-1, len(subParityCases), subRows)
	}
	arrRows := mustQuery(t, eng, `SELECT table, refs FROM sys.arrangements WHERE refs = 8`)
	if !strings.Contains(arrRows, "subtally") {
		t.Fatalf("sys.arrangements missing shared subtally arrangement: %s", arrRows)
	}
	for _, s := range subs {
		if st := s.Stats(); st.Watermark == 0 || st.Delivered == 0 {
			t.Fatalf("subscription %d saw no deltas: %+v", st.ID, st)
		}
	}

	// Zero-reader teardown: closing every subscription detaches every tap,
	// and sys.arrangements drops the table.
	for _, s := range subs {
		s.Close()
	}
	if arrs := eng.Arrangements(); len(arrs) != 0 {
		t.Fatalf("arrangements survive zero readers: %+v", arrs)
	}
	if subs := eng.Subscriptions(); len(subs) != 0 {
		t.Fatalf("subscriptions survive Close: %+v", subs)
	}
}

// TestSubscribeParity: initial snapshot + applied deltas ≡ the re-polled
// one-shot query, for every supported shape, on the simulated transport.
func TestSubscribeParity(t *testing.T) { runSubscribeParity(t, nil) }

// TestSubscribeParityTCP: the same invariant over real loopback-TCP
// framing — subscriptions are transport-independent.
func TestSubscribeParityTCP(t *testing.T) {
	lb, err := transport.NewLoopback()
	if err != nil {
		t.Fatal(err)
	}
	runSubscribeParity(t, lb)
}

// TestSubscribeShedResync: a consumer that stops reading overflows its
// bounded queue; the default policy sheds the backlog and enqueues one
// fresh snapshot frame, from which the late consumer re-converges to the
// polling oracle.
func TestSubscribeShedResync(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	defer eng.Close()
	recs, phase1 := subTallyRecords(16)
	release, finish := startSubTallyJob(t, eng, recs, phase1)
	defer finish()

	c := subParityCases[0]
	s, err := eng.SubscribeWithOptions(c.sub, SubOptions{Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Do not read: every delta frame beyond the first overflows the
	// 1-slot queue and must shed+resync rather than block the writer that
	// folds it.
	release()
	waitFor(t, func() bool { return s.Stats().Shed > 0 && s.Stats().Resyncs > 0 }, "overload shed a frame")

	view := map[string][]any{}
	converge(t, eng, s, view, c)
	st := s.Stats()
	if st.Shed == 0 || st.Resyncs == 0 {
		t.Fatalf("expected shedding and resyncs, got %+v", st)
	}
	if st.Done {
		t.Fatalf("shed+resync must not terminate the subscription: %+v", st)
	}
}

// TestSubscribeFailFast: under PolicyFailFast an overflow terminates the
// subscription — Done closes, Err reports the overflow, and the registry
// forgets it.
func TestSubscribeFailFast(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	defer eng.Close()
	recs, phase1 := subTallyRecords(16)
	release, finish := startSubTallyJob(t, eng, recs, phase1)
	defer finish()

	s, err := eng.SubscribeWithOptions(subParityCases[0].sub, SubOptions{Queue: 1, Policy: PolicyFailFast})
	if err != nil {
		t.Fatal(err)
	}
	release()
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("FailFast subscription did not terminate on overflow")
	}
	if s.Err() == nil {
		t.Fatal("terminated subscription reports no error")
	}
	if subs := eng.Subscriptions(); len(subs) != 0 {
		t.Fatalf("terminated subscription still registered: %+v", subs)
	}
}

// TestSubscribeRejections: the standing dialect is a deliberate subset;
// everything outside it fails at subscribe time with a pointed error, and
// the one-shot path refuses the SUBSCRIBE keyword with a redirect.
func TestSubscribeRejections(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	defer eng.Close()
	recs := []Record{{Key: 1, Value: 2}, {Key: 2, Value: 3}}
	job, err := eng.SubmitJob(averagingJob(recs), JobSpec{Name: "rej", State: StateConfig{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	job.Wait()

	bad := []struct{ name, q string }{
		{"order-by", `SELECT count FROM average ORDER BY count`},
		{"limit", `SELECT count FROM average LIMIT 5`},
		{"star", `SELECT * FROM average`},
		{"virtual", `SELECT subsystem FROM sys.history`},
		{"snapshot", `SELECT count FROM snapshot_average`},
		{"left-join", `SELECT a.count FROM average a LEFT JOIN average b USING(partitionKey)`},
		{"unknown-table", `SELECT x FROM nosuch`},
	}
	for _, c := range bad {
		if _, err := eng.Subscribe(c.q); err == nil {
			t.Errorf("%s: SUBSCRIBE %s unexpectedly accepted", c.name, c.q)
		}
	}
	if _, err := eng.SubscribeWithOptions(`SELECT count FROM average`, SubOptions{Policy: PolicyRetry}); err == nil {
		t.Error("PolicyRetry accepted as a subscription policy")
	}
	if _, err := eng.Query(`SUBSCRIBE SELECT count FROM average`); err == nil ||
		!strings.Contains(err.Error(), "Subscribe") {
		t.Errorf("one-shot path must redirect SUBSCRIBE, got %v", err)
	}
}

// TestSubscribeSurvivesRebalance: a subscription keeps exact parity when
// the cluster rebalances mid-stream — each reset partition reaches the
// tap as the difference it made (nothing, for a flip that moved no entry),
// so the subscriber sees no duplicates and misses nothing, and the
// table's sys.arrangements row still counts the resets.
func TestSubscribeSurvivesRebalance(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	defer eng.Close()
	recs, phase1 := subTallyRecords(16)
	release, finish := startSubTallyJob(t, eng, recs, phase1)
	defer finish()

	c := subParityCases[1]
	s, err := eng.Subscribe(c.sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	view := map[string][]any{}
	converge(t, eng, s, view, c)

	if _, err := eng.JoinNode(); err != nil {
		t.Fatal(err)
	}
	release()
	waitFor(t, func() bool {
		rebs := eng.Rebalances()
		return len(rebs) > 0 && !rebs[len(rebs)-1].Running
	}, "rebalance finished")
	converge(t, eng, s, view, c)
	if arrs := eng.Arrangements(); len(arrs) != 1 || arrs[0].Resets == 0 {
		t.Fatalf("rebalance caused no arrangement resets: %+v", arrs)
	}
}

// TestSubscribeUnderWrites: subscribing while the table is being written
// must hand the sink its standing query before a writer can call it.
// With a one-slot queue nobody reads, the first delta frame overflows
// behind the snapshot frame and sheds — the path that resyncs from the
// standing query, on the writer — possibly before SubscribeWithOptions has
// returned. Run with -race.
func TestSubscribeUnderWrites(t *testing.T) {
	eng := New(Config{Nodes: 2, Partitions: 18})
	defer eng.Close()
	gate := make(chan struct{})
	job, err := eng.SubmitJob(healthJob(gate), JobSpec{Name: "writer", State: StateConfig{Live: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	defer close(gate)
	waitRow(t, eng, `SELECT COUNT(*) FROM average`, func(n int64) bool { return n > 0 }, "the writer's first state")

	for i := 0; i < 25; i++ {
		s, err := eng.SubscribeWithOptions(`SELECT partitionKey, count FROM average`, SubOptions{Queue: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Poll the counter, not Stats: Stats takes the standing query's
		// lock, and that would order this goroutine's writes before the
		// writer's reads whether or not subscribe itself did.
		waitFor(t, func() bool { return s.resyncs.Load() > 0 }, "an overflow to shed and resync")
		s.Close()
	}
}

// TestSubscribeCloseUnderWrites: Subscription.close closes Events right
// after the standing query's Close returns, so no frame may reach the sink
// after that — not even from a delta group a writer began delivering
// before the tap was detached. 32 subscriptions (filters, aggregates and
// a self-join), each with a small queue so writers also shed and resync,
// are closed one at a time while two writers run: nothing sends on a
// closed channel, every Events drains and closes, and the last Close
// leaves the table with no tap. Run with -race.
func TestSubscribeCloseUnderWrites(t *testing.T) {
	eng := New(Config{Nodes: 2, Partitions: 18})
	defer eng.Close()
	gate := make(chan struct{})
	job, err := eng.SubmitJob(healthJob(gate), JobSpec{Name: "writer", State: StateConfig{Live: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	defer close(gate)
	waitRow(t, eng, `SELECT COUNT(*) FROM average`, func(n int64) bool { return n > 0 }, "the writers' first state")

	queries := []string{
		`SELECT partitionKey, count, total FROM average WHERE count > 1`,
		`SELECT count, COUNT(*), SUM(total) FROM average GROUP BY count`,
		`SELECT COUNT(*), MAX(total) FROM average`,
		`SELECT a.partitionKey, a.total, b."count" FROM average a JOIN average b ON a.partitionKey = b.partitionKey`,
	}
	subs := make([]*Subscription, 32)
	for i := range subs {
		s, err := eng.SubscribeWithOptions(queries[i%len(queries)], SubOptions{Queue: 2})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	last := subs[len(subs)-1]
	waitFor(t, func() bool { return last.Stats().Watermark > 0 }, "the writers delivering to every subscription")
	for i, s := range subs {
		s.Close()
		select {
		case <-s.Done():
		default:
			t.Fatalf("subscription %d: Done still open after Close", i)
		}
		for range s.Events() { // closed by Close, after the frames still queued
		}
	}
	if arrs := eng.Arrangements(); len(arrs) != 0 {
		t.Fatalf("arrangements after the last Close: %+v", arrs)
	}
	if n := eng.clu.Store().GetMap(core.LiveMapName("average")).TapCount(); n != 0 {
		t.Fatalf("average has %d taps after the last Close, want 0", n)
	}
}

// goroutineStacks returns the stack of every running goroutine by its
// number.
func goroutineStacks() map[int]string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := map[int]string{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		var id int
		if _, err := fmt.Sscanf(g, "goroutine %d ", &id); err == nil {
			out[id] = g
		}
	}
	return out
}

// TestSubscribeOwnsNoGoroutine: a standing query folds on the writer, so
// subscribing starts no goroutine; and Engine.Close ends every
// subscription left open — each Events channel and Done closes — leaving
// no goroutine of the engine behind.
func TestSubscribeOwnsNoGoroutine(t *testing.T) {
	floor := 0 // goroutines numbered above it start during the test
	for id := range goroutineStacks() {
		floor = max(floor, id)
	}
	eng := New(Config{Nodes: 3, Partitions: 27})
	recs, phase1 := subTallyRecords(12)
	release, finish := startSubTallyJob(t, eng, recs, phase1)

	before := runtime.NumGoroutine()
	subs := make([]*Subscription, 64)
	for i := range subs {
		s, err := eng.Subscribe(subParityCases[i%len(subParityCases)].sub)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before },
		fmt.Sprintf("goroutines back to %d after 64 subscriptions", before))
	release()
	finish()

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		select {
		case <-s.Done():
		default:
			t.Fatalf("subscription %d: Done still open after Engine.Close", i)
		}
		for range s.Events() { // closed, after the frames still queued
		}
	}
	if n := len(eng.Subscriptions()); n != 0 {
		t.Fatalf("%d subscriptions registered after Engine.Close", n)
	}
	leftover := func() string {
		for id, g := range goroutineStacks() {
			// A function line starts its line; file paths are indented.
			if id > floor && (strings.Contains(g, "\nsquery/") || strings.Contains(g, "\nsquery.")) {
				return g
			}
		}
		return ""
	}
	deadline := time.Now().Add(5 * time.Second)
	for g := leftover(); g != ""; g = leftover() {
		if time.Now().After(deadline) {
			t.Fatalf("a goroutine outlived Engine.Close:\n%s", g)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubscribeHTTP drives the SSE /subscribe endpoint end to end: the
// engine's adapter serves a standing query over HTTP, a write's delta
// reaches the client, and a client that disconnects leaves no
// subscription behind in sys.subscriptions.
func TestSubscribeHTTP(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	defer eng.Close()
	recs, phase1 := subTallyRecords(8)
	release, finish := startSubTallyJob(t, eng, recs, phase1)
	defer finish()
	srv := httptest.NewServer(obshttp.Handler(obshttp.Options{Subscribe: eng.HTTPSubscribe}))
	defer srv.Close()

	ctx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	q := url.QueryEscape(`SELECT partitionKey, total FROM subtally`)
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/subscribe?q="+q, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	kinds := make(chan string)
	go func() {
		defer close(kinds)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if kind, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				kinds <- kind
			}
		}
	}()
	next := func() string {
		select {
		case k := <-kinds:
			return k
		case <-time.After(10 * time.Second):
			t.Fatal("no SSE event within 10s")
			return ""
		}
	}
	if k := next(); k != "columns" {
		t.Fatalf("first event %q, want columns", k)
	}
	if k := next(); k != "snapshot" {
		t.Fatalf("second event %q, want snapshot", k)
	}
	if n := len(eng.Subscriptions()); n != 1 {
		t.Fatalf("%d subscriptions while the client is connected, want 1", n)
	}
	release()
	if k := next(); k != "delta" {
		t.Fatalf("event after a write %q, want delta", k)
	}

	disconnect()
	waitFor(t, func() bool { return len(eng.Subscriptions()) == 0 }, "the disconnected client's subscription to end")
	res, err := eng.Query(`SELECT subscription FROM sys.subscriptions`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("sys.subscriptions not empty after the client disconnected: %v", res.Rows)
	}
}
