package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"squery"
	"squery/internal/qcommerce"
	"squery/internal/sql"
)

// Query classes: what the benchmark's query clients send. Each class is
// one access pattern of the read path; the texts are built from seeded
// draws only.

type qclass int

const (
	qPoint  qclass = iota // one key of live orderstate
	qIndex                // a hash-equality read, then a B-tree range read, of live state
	qScan                 // grouped aggregate over a full scan of live orderinfo
	qJoin                 // the paper's Queries 1-4 on snapshot tables
	qObject               // a block of direct-object GetLive calls
	nClasses

	// qRange is the second half of an index operation: a text, never a
	// slot of its own. (Timed apart, the two halves make a two-humped
	// sample whose median jumps from one hump to the other.)
	qRange = nClasses
)

var className = [nClasses + 1]string{"point", "index", "scan", "join", "object", "range"}

// Object blocks: objectCalls GetLive calls of objectKeys keys each (Fig
// 14's unit), timed as one block.
const (
	objectCalls = 1000
	objectKeys  = 10
)

// rangeWindow is how many of the most recent record numbers the B-tree
// range read covers. Half the records are status events and hot orders
// repeat, so the window holds about 2 % of a 50 K-order table.
const rangeWindow = 4000

// traceQueryEvery is the sampling period of query spans on a traced run.
const traceQueryEvery = 4

// scanCategory is the non-indexed predicate of the scan class.
const scanCategory = "pharmacy"

// querier issues queries of every class against one engine. Each client
// goroutine owns one (the rng is not shared).
type querier struct {
	e   *env
	rng *rand.Rand
	n   [nClasses + 1]int // queries issued per class, to rotate variants
	obj squery.ObjectView
	// keys reused across object calls
	okeys []squery.Key
}

func newQuerier(e *env, id int64) *querier {
	return &querier{
		e:     e,
		rng:   rand.New(rand.NewSource(e.g.seed*1000 + id)),
		obj:   e.eng.Object("riderlocation"),
		okeys: make([]squery.Key, objectKeys),
	}
}

// text returns the next SQL statement of class c and a check of its
// result that holds whatever the pipeline is writing concurrently.
func (q *querier) text(c qclass) (string, func(*squery.Result) error) {
	g := q.e.g
	n := q.n[c]
	q.n[c]++
	switch c {
	case qPoint:
		key := g.keyStrs[kStatus][q.rng.Intn(g.orders)]
		return `SELECT orderState, seq FROM orderstate WHERE partitionKey='` + key + `'`,
			func(r *squery.Result) error {
				if len(r.Rows) != 1 {
					return fmt.Errorf("point read of %s: %d rows, want 1", key, len(r.Rows))
				}
				return nil
			}
	case qIndex:
		v := q.rng.Intn(vendors)
		want := g.orders / vendors
		if v < g.orders%vendors {
			want++
		}
		return `SELECT partitionKey, deliveryZone FROM orderinfo WHERE vendor = '` + vendorName(v) + `'`,
			func(r *squery.Result) error {
				if len(r.Rows) != want {
					return fmt.Errorf("vendor-%d read: %d rows, want %d", v, len(r.Rows), want)
				}
				return nil
			}
	case qRange:
		from := q.e.p.emitted.Load() - rangeWindow
		return fmt.Sprintf(`SELECT partitionKey, orderState, seq FROM orderstate WHERE seq >= %d`, from),
			func(r *squery.Result) error {
				if len(r.Rows) > rangeWindow {
					return fmt.Errorf("range read from seq %d: %d rows, more than the window", from, len(r.Rows))
				}
				return nil
			}
	case qScan:
		want := int64(0)
		for i := 0; i < g.orders; i++ {
			if qcommerce.Categories[i%len(qcommerce.Categories)] == scanCategory {
				want++
			}
		}
		return scanQuery, func(r *squery.Result) error {
			var got int64
			for _, row := range r.Rows {
				got += toInt(row[0])
			}
			if got != want {
				return fmt.Errorf("scan counted %d %s orders, want %d", got, scanCategory, want)
			}
			return nil
		}
	default:
		return qcommerce.Queries[n%len(qcommerce.Queries)], func(r *squery.Result) error {
			var got int64
			for _, row := range r.Rows {
				got += toInt(row[0])
			}
			if got < 0 || got > int64(g.orders) {
				return fmt.Errorf("join counted %d orders of %d", got, g.orders)
			}
			return nil
		}
	}
}

const scanQuery = `SELECT COUNT(*), deliveryZone FROM orderinfo WHERE vendorCategory = '` + scanCategory + `' GROUP BY deliveryZone`

// run executes one operation of class c and reports whether its result
// was right. Degraded results count as wrong: nothing in the benchmark
// injects faults.
func (q *querier) run(c qclass) error {
	switch c {
	case qObject:
		return q.objectBlock()
	case qIndex:
		if err := q.query(qIndex); err != nil {
			return err
		}
		return q.query(qRange)
	}
	return q.query(c)
}

// query executes one SQL statement of class c.
func (q *querier) query(c qclass) error {
	text, check := q.text(c)
	var res *squery.Result
	var err error
	if rec := q.e.rec; rec != nil && rec.queries.Load() && q.n[c]%traceQueryEvery == 0 {
		// A traced query: parse, plan and exec are taken on the same
		// text by three calls, sql.Parse ⊂ Engine.Explain ⊂ Engine.Query.
		t0 := nowNs()
		_, _ = sql.Parse(text)
		t1 := nowNs()
		_, _ = q.e.eng.Explain(text)
		t2 := nowNs()
		res, err = q.e.eng.Query(text)
		t3 := nowNs()
		rec.query(querySpan{class: c, startNs: t2, endNs: t3, parseNs: t1 - t0, explainNs: t2 - t1, runNs: t3 - t2})
	} else {
		res, err = q.e.eng.Query(text)
	}
	if err != nil {
		return fmt.Errorf("%s query: %w", className[c], err)
	}
	if res.IsDegraded() {
		return fmt.Errorf("%s query: degraded result", className[c])
	}
	return check(res)
}

func (q *querier) objectBlock() error {
	g := q.e.g
	for i := 0; i < objectCalls; i++ {
		for k := range q.okeys {
			q.okeys[k] = g.keys[kRider][q.rng.Intn(g.riders)]
		}
		for _, v := range q.obj.GetLive(q.okeys...) {
			if v == nil {
				return fmt.Errorf("object read: missing rider")
			}
		}
	}
	return nil
}

// pinned rewrites one of the paper's queries to read snapshot ssid only.
func pinned(query string, ssid int64) string {
	query = strings.TrimSuffix(strings.TrimSpace(query), ";")
	w := strings.Index(query, " WHERE ")
	gb := strings.Index(query, " GROUP BY ")
	return fmt.Sprintf("%s WHERE ssid = %d AND (%s)%s", query[:w], ssid, query[w+len(" WHERE "):gb], query[gb:])
}

func toInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	case uint64:
		return int64(x)
	}
	return 0
}

// opCount tallies attempted and failed operations of one kind.
type opCount struct {
	attempted, failed atomic.Int64
	firstErr          atomic.Pointer[error]
}

func (o *opCount) note(err error) {
	o.attempted.Add(1)
	if err != nil {
		o.failed.Add(1)
		o.firstErr.CompareAndSwap(nil, &err)
	}
}
