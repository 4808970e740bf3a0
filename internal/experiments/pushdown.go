package experiments

import (
	"fmt"
	"strings"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/sql"
)

// PushdownRow is one measured configuration of the pushdown experiment:
// a query executed as partition fragments (pushdown on) or at the client
// (off), with mean latency and the per-execution row movement counters.
type PushdownRow struct {
	Query       string
	Mode        string // "pushdown" or "ship-all"
	Mean        time.Duration
	RowsShipped int64 // rows that crossed the client hop, per execution
	RowsScanned int64 // rows examined on the owning nodes, per execution
	Parts       int64 // partitions scanned, per execution
}

// Pushdown measures what running a plan as partition fragments saves over
// the ship-everything execution model: a selective WHERE (~2% match) and a
// LIMIT 10 run with filter, projection and LIMIT early-stop inside the
// partition reads, then again with DisablePushdown
// (every row ships to the client, filtering runs there). A
// co-partitioned join with a selective pushed predicate shows the win
// compounding with co-location.
func Pushdown(o Options) []PushdownRow {
	const (
		nodes = 3
		parts = 128
	)
	keys := 40_000
	iters := 20
	if o.Quick {
		keys = 4_000
		iters = 5
	}

	store := kv.NewStore(partition.New(parts), partition.Assign(parts, nodes), nil)
	mgr := core.NewManager(store, 2)
	cfg := core.Config{Live: true}
	for _, op := range []string{"orders", "orderstate"} {
		if err := mgr.RegisterOperator(core.OperatorMeta{Name: op, Parallelism: 1, Config: cfg}); err != nil {
			panic(err)
		}
	}
	orders := core.NewBackend("orders", 0, store.View(0), cfg)
	state := core.NewBackend("orderstate", 0, store.View(0), cfg)
	zones := []string{"north", "south", "east", "west"}
	states := []string{"VENDOR_ACCEPTED", "NOTIFIED", "PICKED_UP"}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("order-%d", i)
		orders.Update(key, map[string]any{
			"deliveryZone": zones[i%len(zones)],
			"customerLat":  50.0 + float64(i%1000)/10.0, // 50.0 .. 149.9
		})
		state.Update(key, map[string]any{"orderState": states[i%len(states)]})
	}
	cat := core.NewCatalog(store)
	if err := cat.RegisterJob(mgr.Registry(), "orders", "orderstate"); err != nil {
		panic(err)
	}
	ex := sql.NewExecutor(cat, nodes)
	reg := metrics.NewRegistry()
	ex.SetMetrics(reg)

	queries := []struct{ label, q string }{
		{"selective WHERE (~2% match)", `SELECT deliveryZone FROM orders WHERE customerLat > 148`},
		{"LIMIT 10", `SELECT deliveryZone FROM orders LIMIT 10`},
		{"co-partitioned join + WHERE", `SELECT COUNT(*) FROM orders JOIN orderstate USING(partitionKey) WHERE orders.customerLat > 148`},
	}
	modes := []struct {
		label string
		opts  sql.ExecOpts
	}{
		{"pushdown", sql.ExecOpts{}},
		{"ship-all", sql.ExecOpts{DisablePushdown: true}},
	}

	shipped := reg.Counter("sql", "exec", "rows_shipped")
	scanned := reg.Counter("sql", "exec", "rows_scanned")
	partsC := reg.Counter("sql", "exec", "partitions_scanned")

	var out []PushdownRow
	for _, qc := range queries {
		for _, m := range modes {
			// Warm once outside the measurement.
			if _, err := ex.QueryWithOptions(qc.q, m.opts); err != nil {
				panic(fmt.Sprintf("experiments: pushdown %q: %v", qc.q, err))
			}
			s0, x0, p0 := shipped.Value(), scanned.Value(), partsC.Value()
			sw := metrics.StartStopwatch()
			for i := 0; i < iters; i++ {
				if _, err := ex.QueryWithOptions(qc.q, m.opts); err != nil {
					panic(fmt.Sprintf("experiments: pushdown %q: %v", qc.q, err))
				}
			}
			wall := sw.Elapsed()
			n := int64(iters)
			out = append(out, PushdownRow{
				Query:       qc.label,
				Mode:        m.label,
				Mean:        wall / time.Duration(iters),
				RowsShipped: (shipped.Value() - s0) / n,
				RowsScanned: (scanned.Value() - x0) / n,
				Parts:       (partsC.Value() - p0) / n,
			})
		}
	}
	return out
}

// PushdownTable renders the pushdown experiment as an aligned text table.
func PushdownTable(title string, rows []PushdownRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-30s %-9s %10s %14s %14s %8s\n",
		"query", "mode", "mean", "rows shipped", "rows scanned", "parts")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-9s %10s %14d %14d %8d\n",
			r.Query, r.Mode, roundDur(r.Mean), r.RowsShipped, r.RowsScanned, r.Parts)
	}
	return b.String()
}
