package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"squery"
	"squery/bench/stats"
	"squery/internal/qcommerce"
)

// Standing queries and their receivers. Every subscription projects the
// stampNs its source write carried (MAX(stampNs) for aggregates) and, where
// a single write is identifiable, its seq; the receiver subtracts the
// stamp from its own clock on arrival and folds the frame into a view the
// verifier later compares with a poll of the same query.

type subKind int

const (
	subFilter subKind = iota
	subAgg
	subJoin
	nSubKinds
)

// subSpec is one standing query: its text and where in the output row
// the stamp and (if any) the seq sit.
type subSpec struct {
	kind     subKind
	query    string
	stampCol int
	seqCol   int // -1 when rows do not map to single writes
}

// subQueue is the per-subscription queue capacity: room for the frames of
// a saturated second, so that a shed means the push path fell behind, not
// that a receiver was descheduled for a moment.
const subQueue = 1024

// filterSpecs returns n single-table filters over orderstate: one per
// (lifecycle state, late or on time) pair, repeated as different users
// watching the same board would.
func filterSpecs(n int) []subSpec {
	var out []subSpec
	for i := 0; len(out) < n; i++ {
		state := qcommerce.OrderStates[i%len(qcommerce.OrderStates)]
		cmp := "<"
		if (i/len(qcommerce.OrderStates))%2 == 1 {
			cmp = ">"
		}
		out = append(out, subSpec{kind: subFilter, stampCol: 2, seqCol: 3,
			query: fmt.Sprintf(`SELECT partitionKey, orderState, stampNs, seq FROM orderstate WHERE orderState = '%s' AND lateTimestamp %s LOCALTIMESTAMP`, state, cmp)})
	}
	return out
}

// aggSpecs returns n aggregates. A standing aggregate recomputes a dirty
// group from every member row, so a write costs O(rows of the groups it
// touches): the list runs from small groups to one global COUNT(*), and is
// sized so that all eight together leave the subscribe workload's two
// cores unsaturated at its paced rate.
func aggSpecs(n int) []subSpec {
	texts := []string{
		// First, so that a lone probe aggregate is this one: its single
		// group holds 2 % of the riders, the hottest among them.
		`SELECT COUNT(*), MAX(stampNs) FROM riderlocation WHERE lat < 52.002`,
		`SELECT COUNT(*), MAX(stampNs) FROM riderlocation`,
		`SELECT orderState, COUNT(*), MAX(stampNs) FROM orderstate WHERE lateTimestamp < LOCALTIMESTAMP GROUP BY orderState`,
		`SELECT COUNT(*), MAX(stampNs) FROM orderstate WHERE orderState = 'DELIVERED' AND lateTimestamp < LOCALTIMESTAMP`,
		`SELECT deliveryZone, COUNT(*), MAX(stampNs) FROM orderinfo WHERE vendorCategory = 'pharmacy' GROUP BY deliveryZone`,
		`SELECT deliveryZone, COUNT(*), MAX(stampNs) FROM orderinfo WHERE vendor = 'vendor-7' GROUP BY deliveryZone`,
		`SELECT vendor, COUNT(*), MAX(stampNs) FROM orderinfo GROUP BY vendor`,
		`SELECT deliveryZone, vendorCategory, COUNT(*), MAX(stampNs) FROM orderinfo GROUP BY deliveryZone, vendorCategory`,
	}
	var out []subSpec
	for i := 0; len(out) < n; i++ {
		q := texts[i%len(texts)]
		out = append(out, subSpec{kind: subAgg, query: q, seqCol: -1,
			stampCol: strings.Count(q[:strings.Index(q, " FROM ")], ",")})
	}
	return out
}

// joinSpecs returns n orderinfo ⋈ orderstate joins, one per lifecycle
// state.
func joinSpecs(n int) []subSpec {
	var out []subSpec
	for i := 0; len(out) < n; i++ {
		state := qcommerce.OrderStates[i%len(qcommerce.OrderStates)]
		out = append(out, subSpec{kind: subJoin, stampCol: 2, seqCol: 3,
			query: fmt.Sprintf(`SELECT deliveryZone, orderState, orderstate.stampNs, orderstate.seq FROM orderinfo JOIN orderstate USING(partitionKey) WHERE orderState = '%s'`, state)})
	}
	return out
}

// subscriber is one subscription with its receiver goroutine.
type subscriber struct {
	spec     subSpec
	sub      *squery.Subscription
	attachNs int64 // Subscribe call → first snapshot frame received

	// mu guards everything the receiver writes: the run reads it while
	// frames may still arrive.
	mu       sync.Mutex
	view     map[string][]any
	lat      *stats.Samples // stamp → arrival, for stamps inside the window
	deltas   int64
	maxDepth int

	done chan struct{}

	from, to *atomic.Int64 // the window whose stamps are sampled
	rec      *recorder
}

// attach subscribes every spec, starts the receivers and waits for each
// initial snapshot frame.
func (e *env) attach(specs []subSpec, samples int) error {
	for _, sp := range specs {
		t0 := nowNs()
		sub, err := e.eng.SubscribeWithOptions(sp.query, squery.SubOptions{Queue: subQueue})
		if err != nil {
			return fmt.Errorf("subscribe %q: %w", sp.query, err)
		}
		s := &subscriber{spec: sp, sub: sub, view: map[string][]any{},
			lat: newSamples(samples), done: make(chan struct{}),
			from: &e.from, to: &e.to, rec: e.rec}
		first := make(chan struct{})
		go s.receive(first)
		<-first
		s.attachNs = nowNs() - t0
		e.subs = append(e.subs, s)
	}
	return nil
}

// receive timestamps and folds frames until the subscription ends.
func (s *subscriber) receive(first chan struct{}) {
	defer close(s.done)
	events := s.sub.Events()
	for ev := range events {
		now := nowNs()
		s.mu.Lock()
		if d := len(events); d > s.maxDepth {
			s.maxDepth = d
		}
		if ev.Snapshot {
			s.view = make(map[string][]any, len(ev.Deltas))
		}
		from, to := s.from.Load(), s.to.Load()
		for _, d := range ev.Deltas {
			if d.Delete {
				delete(s.view, d.Key)
				continue
			}
			prev := s.view[d.Key]
			s.view[d.Key] = d.Vals
			if ev.Snapshot {
				continue
			}
			s.deltas++
			// Sample only a stamp that is new for this output row: a
			// group's MAX(stampNs) falls back to an older write when its
			// newest row leaves, and that is not a delivery of that write.
			stamp := toInt(d.Vals[s.spec.stampCol])
			if prev != nil && toInt(prev[s.spec.stampCol]) >= stamp {
				continue
			}
			if stamp >= from && stamp < to {
				s.lat.Add(now - stamp)
				if s.spec.seqCol >= 0 {
					s.rec.delivery(toInt(d.Vals[s.spec.seqCol]), stamp, now)
				}
			}
		}
		s.mu.Unlock()
		if first != nil {
			close(first)
			first = nil
		}
	}
}

func (s *subscriber) close() {
	s.sub.Close()
	<-s.done
}
