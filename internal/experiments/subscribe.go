package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/sql"
)

// SubscribeResult compares the steady-state cost of keeping a fleet of
// clients fresh over operator state two ways: N standing queries sharing
// one arrangement (deltas pushed on change) versus the same N clients
// re-executing their query against live state (polling). One "round" is
// one fleet refresh: for subscriptions, the wall time from an update
// burst landing in the store until every affected subscriber has applied
// its deltas; for polling, the wall time for all N clients to re-execute
// once, measured at fixed concurrency.
type SubscribeResult struct {
	Clients int // N: standing queries, and polling clients
	Keys    int // table cardinality
	Zones   int // each client watches one zone (Keys/Zones rows)
	Updates int // updates per round (distinct keys, distinct zones)
	Rounds  int // measured subscription rounds

	Arrangements int   // shared arrangements backing all N subscriptions
	ArrRefs      int64 // readers on the shared arrangement (should be N)
	AttachTime   time.Duration

	SubRoundMean time.Duration // refresh whole fleet after one burst
	SubRoundMax  time.Duration
	SubRowsRound int64 // delta rows shipped per round, fleet-wide

	PollQPS       float64       // aggregate polled queries/s
	PollQueryMean time.Duration // one client's re-execution
	PollRound     time.Duration // Clients / PollQPS: one fleet refresh
	PollRowsRound int64         // rows scanned per fleet refresh
	PollScanPerQ  int64         // rows scanned by one polled query

	WallSpeedup float64 // PollRound / SubRoundMean
	RowSpeedup  float64 // PollRowsRound / SubRowsRound
}

// Subscribe measures push vs poll at fleet scale. The workload is the
// paper's operational shape: a live operator table partitioned into
// delivery zones, one dashboard client per courier watching its zone.
// Both fleets see the same store; the subscription fleet attaches first,
// is driven through measured update rounds, then detaches before the
// polling fleet is timed, so neither measurement pays for the other.
func Subscribe(o Options) SubscribeResult {
	const (
		nodes = 3
		parts = 128
	)
	clients, keys, zones, burst, rounds := 10_000, 2_000, 100, 40, 8
	if o.Quick {
		clients, keys, zones, burst, rounds = 500, 1_000, 50, 25, 4
	}

	store := kv.NewStore(partition.New(parts), partition.Assign(parts, nodes), nil)
	mgr := core.NewManager(store, 2)
	cfg := core.Config{Live: true}
	if err := mgr.RegisterOperator(core.OperatorMeta{Name: "orders", Parallelism: 1, Config: cfg}); err != nil {
		panic(err)
	}
	cat := core.NewCatalog(store)
	if err := cat.RegisterJob(mgr.Registry(), "orders"); err != nil {
		panic(err)
	}
	orders := core.NewBackend("orders", 0, store.View(0), cfg)
	for i := 0; i < keys; i++ {
		orders.Update(fmt.Sprintf("order-%d", i), map[string]any{
			"deliveryZone": fmt.Sprintf("z%d", i%zones),
			"amount":       int64(i),
		})
	}
	orders.Flush()

	reg := core.NewArrangeRegistry(store)
	ex := sql.NewExecutor(cat, nodes)
	ex.SetArrangements(reg)
	mreg := metrics.NewRegistry()
	ex.SetMetrics(mreg)

	// Subscription fleet: client i watches zone i%zones. Sinks only
	// count — the cost under test is the engine's, not the client's.
	var delivered atomic.Int64
	sink := func(ev sql.SubEvent) {
		delivered.Add(int64(len(ev.Deltas)))
	}
	subs := make([]*sql.StandingQuery, 0, clients)
	sw := metrics.StartStopwatch()
	for i := 0; i < clients; i++ {
		q := fmt.Sprintf(`SELECT partitionKey, amount FROM orders WHERE deliveryZone = 'z%d'`, i%zones)
		sq, err := ex.SubscribeQuery(q, func(*sql.StandingQuery) func(sql.SubEvent) { return sink })
		if err != nil {
			panic(fmt.Sprintf("experiments: subscribe: %v", err))
		}
		subs = append(subs, sq)
	}
	// Every client's initial snapshot is part of the attach cost.
	snapRows := int64(clients) * int64(keys/zones)
	waitDelivered(&delivered, snapRows, "initial snapshots")
	attach := sw.Elapsed()

	res := SubscribeResult{
		Clients: clients, Keys: keys, Zones: zones,
		Updates: burst, Rounds: rounds, AttachTime: attach,
	}
	for _, info := range reg.Infos() {
		res.Arrangements++
		res.ArrRefs += int64(info.Refs)
	}

	// Steady state: each round updates `burst` distinct keys in distinct
	// zones, then waits for every watching subscriber to apply the delta.
	// burst <= zones keeps consecutive key ids in distinct zones, so the
	// expected fan-out is exact: burst updates x clients/zones watchers.
	perRound := int64(burst) * int64(clients/zones)
	var roundSum, roundMax time.Duration
	for r := 0; r < rounds; r++ {
		base := delivered.Load()
		rsw := metrics.StartStopwatch()
		for u := 0; u < burst; u++ {
			id := (r*burst + u) % keys
			orders.Update(fmt.Sprintf("order-%d", id), map[string]any{
				"deliveryZone": fmt.Sprintf("z%d", id%zones),
				"amount":       int64((r+1)*keys + id),
			})
		}
		orders.Flush()
		waitDelivered(&delivered, base+perRound, "round deltas")
		d := rsw.Elapsed()
		roundSum += d
		if d > roundMax {
			roundMax = d
		}
	}
	res.SubRoundMean = roundSum / time.Duration(rounds)
	res.SubRoundMax = roundMax
	res.SubRowsRound = perRound
	for _, sq := range subs {
		sq.Close()
	}

	// Polling fleet: the same clients re-execute their zone query against
	// live state. Timed at fixed concurrency; one fleet refresh is then
	// Clients/QPS. No secondary index exists — a polling client pays the
	// scan its query costs on the operator's own schema.
	pollers := 32
	if pollers > clients {
		pollers = clients
	}
	scanned := mreg.Counter("sql", "exec", "rows_scanned")
	scan0 := scanned.Value()
	var qdone atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	psw := metrics.StartStopwatch()
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			q := fmt.Sprintf(`SELECT partitionKey, amount FROM orders WHERE deliveryZone = 'z%d'`, p%zones)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ex.Query(q); err != nil {
					panic(fmt.Sprintf("experiments: poll: %v", err))
				}
				qdone.Add(1)
			}
		}(p)
	}
	time.Sleep(o.measure())
	close(stop)
	wg.Wait()
	window := psw.Elapsed()

	n := qdone.Load()
	res.PollQPS = float64(n) / window.Seconds()
	res.PollQueryMean = time.Duration(int64(window) * int64(pollers) / n)
	res.PollRound = time.Duration(float64(res.Clients) / res.PollQPS * float64(time.Second))
	res.PollScanPerQ = (scanned.Value() - scan0) / n
	res.PollRowsRound = res.PollScanPerQ * int64(res.Clients)

	res.WallSpeedup = float64(res.PollRound) / float64(res.SubRoundMean)
	res.RowSpeedup = float64(res.PollRowsRound) / float64(res.SubRowsRound)
	return res
}

func waitDelivered(c *atomic.Int64, target int64, what string) {
	deadline := time.Now().Add(60 * time.Second)
	for c.Load() < target {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("experiments: subscribe: timed out waiting for %s (%d/%d)",
				what, c.Load(), target))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// SubscribeTable renders the push-vs-poll comparison.
func SubscribeTable(title string, r SubscribeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "fleet: %d clients over %d keys in %d zones; %d arrangement(s), %d reader refs; attach+snapshot %s\n",
		r.Clients, r.Keys, r.Zones, r.Arrangements, r.ArrRefs, roundDur(r.AttachTime))
	fmt.Fprintf(&b, "  %-28s %14s %16s\n", "mode", "fleet refresh", "rows per refresh")
	fmt.Fprintf(&b, "  %-28s %14s %16d\n",
		fmt.Sprintf("subscribe (%d-key burst)", r.Updates), roundDur(r.SubRoundMean), r.SubRowsRound)
	fmt.Fprintf(&b, "  %-28s %14s %16d\n", "poll (re-execute)", roundDur(r.PollRound), r.PollRowsRound)
	fmt.Fprintf(&b, "subscribe: max round %s over %d rounds; poll: %.0f q/s aggregate, %s/query, %d rows scanned/query\n",
		roundDur(r.SubRoundMax), r.Rounds, r.PollQPS, roundDur(r.PollQueryMean), r.PollScanPerQ)
	fmt.Fprintf(&b, "steady-state advantage: %.1fx wall, %.0fx rows\n", r.WallSpeedup, r.RowSpeedup)
	return b.String()
}
