package sql

import (
	"strings"
	"sync"
	"testing"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
)

// fuzzSeeds doubles as the shared seed corpus for both fuzz targets: a
// cross-section of every syntactic feature the test suite exercises, plus
// inputs that must be rejected without panicking.
var fuzzSeeds = []string{
	`SELECT deliveryZone, customerLat FROM orderinfo WHERE partitionKey = 'order-2'`,
	`SELECT deliveryZone FROM "snapshot_orderinfo" WHERE ssid = 1 AND partitionKey = 'order-0'`,
	`SELECT COUNT(*), deliveryZone FROM orderinfo GROUP BY deliveryZone`,
	`SELECT COUNT(*) FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE partitionKey = 'order-1'`,
	`SELECT a.deliveryZone, b.orderState FROM orderinfo a JOIN orderstate b USING(partitionKey)`,
	`SELECT SUM(customerLat), AVG(customerLat), MIN(customerLat), MAX(customerLat) FROM orderinfo`,
	`SELECT deliveryZone FROM orderinfo WHERE customerLat > 52.5 AND NOT (deliveryZone = 'south' OR vendorCategory = 'food')`,
	`SELECT deliveryZone FROM orderinfo WHERE customerLat + 1 * 2 >= -3.5`,
	`EXPLAIN SELECT deliveryZone FROM orderinfo`,
	`EXPLAIN ANALYZE SELECT deliveryZone FROM orderinfo WHERE partitionKey = 5.0`,
	`SELECT * FROM sys.partitions WHERE sets > 0`,
	`SELECT deliveryZone FROM orderinfo LIMIT 3`,
	`SELECT deliveryZone FROM orderinfo WHERE customerLat > 53 LIMIT 0`,
	`SELECT COUNT(DISTINCT deliveryZone) FROM orderinfo`,
	`SELECT a.deliveryZone FROM orderinfo a LEFT JOIN orderstate b USING(partitionKey) WHERE b.orderState = 'NOTIFIED'`,
	`SELECT a.deliveryZone, b.orderState FROM orderinfo a JOIN orderstate b ON a.partitionKey = b.partitionKey WHERE a.customerLat > 52 AND b.orderState = 'NOTIFIED'`,
	`SELECT deliveryZone FROM "snapshot_orderinfo" WHERE snapshot_orderinfo.ssid = 1 AND orderinfo.partitionKey = 'order-3'`,
	`SELECT deliveryZone, COUNT(*) AS c FROM orderinfo GROUP BY deliveryZone HAVING COUNT(*) > 1 ORDER BY c DESC LIMIT 5`,
	`SELECT partitionKey FROM orderinfo WHERE deliveryZone = 'north'`,
	`SELECT partitionKey FROM orderinfo WHERE customerLat BETWEEN 52 AND 60`,
	`SELECT partitionKey FROM orderinfo WHERE customerLat > 50 AND customerLat <= 60 AND deliveryZone = 'north'`,
	`SELECT partitionKey FROM orderinfo WHERE 52.5 >= customerLat`,
	`EXPLAIN SELECT partitionKey FROM orderinfo WHERE deliveryZone = 'north' AND customerLat < 53`,
	`SELECT * FROM "sys.indexes" WHERE lookups >= 0`,
	`SUBSCRIBE SELECT partitionKey, customerLat FROM orderinfo WHERE deliveryZone = 'north'`,
	`SUBSCRIBE SELECT COUNT(*), deliveryZone FROM orderinfo GROUP BY deliveryZone`,
	`SUBSCRIBE SELECT a.deliveryZone, b.orderState FROM orderinfo a JOIN orderstate b USING(partitionKey)`,
	`SUBSCRIBE SELECT deliveryZone FROM orderinfo ORDER BY deliveryZone`,
	`SUBSCRIBE SELECT deliveryZone FROM "snapshot_orderinfo" WHERE ssid = 1`,
	`SUBSCRIBE SELECT * FROM sys.partitions`,
	`SUBSCRIBE`,
	`SUBSCRIBE SUBSCRIBE SELECT 1`,
	`SELECT 'unterminated`,
	`SELECT ((((((((((1))))))))))`,
	`SELECT FROM WHERE`,
	``,
	`;;;`,
	"SELECT \x00 FROM t",
}

var (
	fuzzExOnce sync.Once
	fuzzEx     *Executor
)

// fuzzExecutor builds one fixture-equivalent executor for the whole fuzz
// run (the corpus only reads it, so sharing is safe).
func fuzzExecutor() *Executor {
	fuzzExOnce.Do(func() {
		p := partition.New(32)
		store := kv.NewStore(p, partition.Assign(32, 3), nil)
		mgr := core.NewManager(store, 2)
		cat := core.NewCatalog(store)
		cfg := core.Config{Live: true, Snapshots: true}
		if err := cat.RegisterJob(mgr.Registry(), "orderinfo", "orderstate"); err != nil {
			panic(err)
		}
		for _, op := range []string{"orderinfo", "orderstate"} {
			if err := mgr.RegisterOperator(core.OperatorMeta{Name: op, Parallelism: 1, Config: cfg}); err != nil {
				panic(err)
			}
		}
		// Indexes make the fuzz corpus exercise the planner's index
		// selection (the sargable-atom walk and path costing).
		if err := cat.CreateIndex("orderinfo", "deliveryZone", core.IndexHash); err != nil {
			panic(err)
		}
		if err := cat.CreateIndex("orderinfo", "customerLat", core.IndexBTree); err != nil {
			panic(err)
		}
		info := mgr.NewBackend("orderinfo", 0, store.View(0), cfg)
		state := mgr.NewBackend("orderstate", 0, store.View(0), cfg)
		info.Update("order-0", orderInfo{DeliveryZone: "north", VendorCategory: "food", CustomerLat: 52})
		state.Update("order-0", orderState{OrderState: "NOTIFIED", LateTimestamp: time.Now()})
		ssid, err := mgr.Begin()
		if err != nil {
			panic(err)
		}
		if _, err := info.SnapshotPrepare(ssid); err != nil {
			panic(err)
		}
		if _, err := state.SnapshotPrepare(ssid); err != nil {
			panic(err)
		}
		mgr.Commit(ssid)
		fuzzEx = NewExecutor(cat, 3)
	})
	return fuzzEx
}

// FuzzParse asserts the parser is total: any input either parses or
// returns an error — never a panic or a hang. On parseable input, plan
// rendering (EXPLAIN) must be panic-free too, even when table or column
// resolution fails.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip("oversized input")
		}
		stmt, err := Parse(stripExplainPrefix(input))
		if err != nil || stmt == nil {
			return
		}
		// Parseable: the plan path must hold up against arbitrary ASTs.
		ex := fuzzExecutor()
		_, _ = ex.Explain(stripExplainPrefix(input))
	})
}

// FuzzPlan asserts the planner is total over parser-accepted input: any
// statement Parse accepts must compile to a plan tree or return an error
// — never panic — and the compiled plan must render. planOnly compilation
// is used so unresolvable snapshots exercise the EXPLAIN path instead of
// failing early.
func FuzzPlan(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip("oversized input")
		}
		// SUBSCRIBE routes to the standing-query path: validate/attach
		// must be total too — reject or subscribe, never panic. A
		// successful subscription is torn down immediately, detaching its
		// taps.
		if isSub, rest := splitSubscribe(input); isSub {
			ex := fuzzExecutor()
			if sq, err := ex.SubscribeQuery(rest, discardSink); err == nil {
				sq.Close()
			}
			return
		}
		stmt, err := Parse(stripExplainPrefix(input))
		if err != nil || stmt == nil {
			return
		}
		ex := fuzzExecutor()
		pp, err := ex.compile(resolveOrderByAliases(stmt), ExecOpts{}, true)
		if err != nil {
			return
		}
		_ = pp.render(ex.clusterNodes(), false)
	})
}

// FuzzLexer asserts the tokenizer is total over arbitrary byte soup,
// including invalid UTF-8 and NUL bytes.
func FuzzLexer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add(string([]byte{0xff, 0xfe, '\'', '"', '-'}))
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip("oversized input")
		}
		toks, err := lex(input)
		if err != nil {
			return
		}
		// On success the stream must be well-formed enough to print.
		for _, tok := range toks {
			_ = tok.String()
		}
	})
}

// stripExplainPrefix drops EXPLAIN [ANALYZE] so fuzz inputs that carry
// the prefix exercise Parse on the underlying statement, matching what
// QueryWithOptions does.
func stripExplainPrefix(q string) string {
	mode, rest := splitExplain(q)
	if mode == noExplain {
		return q
	}
	return rest
}

// TestFuzzSeedsDoNotPanic runs the seed corpus through both targets in a
// normal `go test` invocation, so regressions surface without -fuzz.
func TestFuzzSeedsDoNotPanic(t *testing.T) {
	ex := fuzzExecutor()
	for _, s := range fuzzSeeds {
		if _, err := lex(s); err != nil {
			continue
		}
		if _, err := Parse(stripExplainPrefix(s)); err != nil {
			continue
		}
		if _, err := ex.Explain(stripExplainPrefix(s)); err != nil {
			// Resolution errors are fine; panics are not.
			if !strings.Contains(err.Error(), "sql") && err.Error() == "" {
				t.Fatalf("unexpected empty error for %q", s)
			}
		}
	}
}
