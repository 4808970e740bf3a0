package squery

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/core"
	sqlpkg "squery/internal/sql"
)

// Standing queries. Engine.Subscribe turns a SELECT into a continuously
// maintained result: the subscriber first receives a snapshot frame with
// the full current result, then ordered delta frames as operator state
// changes. Subscriptions over the same table share one arrangement (a
// refcounted change-stream tap on the live map, which stays the one copy
// of the table), so N subscriptions cost one tap, not N scans — the
// steady-state economics the -exp subscribe experiment measures against
// polling.

// Re-exported standing-query types.
type (
	// SubEvent is one ordered delivery to a subscriber: a snapshot frame
	// (initial result or post-shed resync) or a delta frame.
	SubEvent = sqlpkg.SubEvent
	// SubDelta is one output-row upsert or delete within a SubEvent.
	SubDelta = sqlpkg.SubDelta
	// ArrangementInfo describes one shared arrangement (refcount, rows,
	// delta/reset accounting) — the programmatic twin of sys.arrangements.
	ArrangementInfo = core.ArrangementInfo
)

// SubOptions tunes one subscription.
type SubOptions struct {
	// Queue is the bounded event-queue capacity between the standing
	// query and the consumer (default 64, minimum 1).
	Queue int
	// Policy selects the overload behavior when the queue is full because
	// the consumer is slow (the shed-on-overload vocabulary of guarded
	// queries, reused): PolicyNone — the default — sheds the queued
	// frames and replaces them with one fresh snapshot frame the consumer
	// re-converges from; PolicyFailFast terminates the subscription
	// instead. Other policies are rejected.
	Policy QueryPolicy
}

// SubStats is a point-in-time account of one subscription — the
// programmatic twin of one sys.subscriptions row.
type SubStats struct {
	ID        int64
	Query     string
	Tables    []string
	Policy    QueryPolicy
	QueueCap  int
	Queued    int    // frames waiting in the queue right now
	Delivered uint64 // frames enqueued to the consumer
	Shed      uint64 // frames dropped by overload shedding
	Resyncs   uint64 // snapshot frames issued after shedding
	Watermark uint64 // source deltas folded into the standing result
	Age       time.Duration
	Done      bool
}

// Subscription is one standing query's consumer handle. Receive from
// Events; Done closes when the subscription ends (Close, a FailFast
// overflow, or a standing-query error — Err tells which).
type Subscription struct {
	id     int64
	query  string
	eng    *Engine
	sq     *sqlpkg.StandingQuery
	ch     chan SubEvent
	done   chan struct{}
	policy QueryPolicy
	born   time.Time

	closing   sync.Once
	delivered atomic.Uint64
	shed      atomic.Uint64
	resyncs   atomic.Uint64
	failed    atomic.Pointer[error]
	ended     atomic.Bool
}

// Subscribe starts a standing query with default options. The query may
// carry the SUBSCRIBE prefix or be a bare SELECT.
func (e *Engine) Subscribe(query string) (*Subscription, error) {
	return e.SubscribeWithOptions(query, SubOptions{})
}

// SubscribeWithOptions starts a standing query. The first event on
// Events is always a snapshot frame holding the full current result; it
// is already enqueued when SubscribeWithOptions returns.
func (e *Engine) SubscribeWithOptions(query string, o SubOptions) (*Subscription, error) {
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.Policy != PolicyNone && o.Policy != PolicyFailFast {
		return nil, fmt.Errorf("squery: subscription policy must be PolicyNone (shed+resync) or PolicyFailFast, got %v", o.Policy)
	}
	s := &Subscription{
		query:  query,
		eng:    e,
		ch:     make(chan SubEvent, o.Queue),
		done:   make(chan struct{}),
		policy: o.Policy,
		born:   time.Now(),
	}
	// deliver reads s.sq on its shed and terminal-error paths, from the
	// standing query's applier goroutine: publish it before that starts.
	_, err := e.ex.SubscribeQuery(query, func(sq *sqlpkg.StandingQuery) func(SubEvent) {
		s.sq = sq
		return s.deliver
	})
	if err != nil {
		return nil, err
	}
	e.subMu.Lock()
	e.subSeq++
	s.id = e.subSeq
	e.subs[s.id] = s
	e.subMu.Unlock()
	e.subIns.active.Add(1)
	return s, nil
}

// Events is the subscription's ordered event stream. It is closed after
// the subscription ends and the queue drains.
func (s *Subscription) Events() <-chan SubEvent { return s.ch }

// Done closes when the subscription has ended for any reason.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Err returns the terminal error: nil after a plain Close, the overflow
// or evaluation error otherwise.
func (s *Subscription) Err() error {
	if p := s.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// ID returns the engine-unique subscription id (the sys.subscriptions key).
func (s *Subscription) ID() int64 { return s.id }

// Columns returns the output column names, aligned with SubDelta.Vals.
func (s *Subscription) Columns() []string { return s.sq.Columns() }

// Query returns the statement the subscription runs.
func (s *Subscription) Query() string { return s.query }

// Stats returns the subscription's current accounting.
func (s *Subscription) Stats() SubStats {
	return SubStats{
		ID:        s.id,
		Query:     s.query,
		Tables:    s.sq.Tables(),
		Policy:    s.policy,
		QueueCap:  cap(s.ch),
		Queued:    len(s.ch),
		Delivered: s.delivered.Load(),
		Shed:      s.shed.Load(),
		Resyncs:   s.resyncs.Load(),
		Watermark: s.sq.Watermark(),
		Age:       time.Since(s.born),
		Done:      s.ended.Load(),
	}
}

// Close ends the subscription: the standing query detaches from its
// arrangements (dropping them at zero readers), Events is closed after
// the already-queued frames, and Done closes. Idempotent.
func (s *Subscription) Close() { s.close(nil) }

func (s *Subscription) close(err error) {
	s.closing.Do(func() {
		if err != nil {
			s.failed.Store(&err)
		}
		// Stopping the standing query first guarantees no deliver call is
		// in flight or coming, making close(s.ch) safe.
		s.sq.Close()
		s.ended.Store(true)
		s.eng.dropSub(s.id)
		close(s.ch)
		close(s.done)
	})
}

// deliver is the standing query's sink: enqueue without blocking — the
// caller is the standing query's applier, which must never stall on a
// slow consumer. On overflow the subscription's policy decides: shed the
// queue and enqueue one fresh snapshot frame (re-convergence), or fail
// fast and terminate.
func (s *Subscription) deliver(ev SubEvent) {
	ins := &s.eng.subIns
	if ev.Err != nil {
		// Terminal evaluation error: make room if needed, deliver it, end
		// the subscription. The async close is safe — it waits for this
		// very sink call to return before tearing the applier down.
		select {
		case s.ch <- ev:
		default:
			select {
			case <-s.ch:
				s.shed.Add(1)
				ins.shed.Inc()
			default:
			}
			s.ch <- ev
		}
		s.delivered.Add(1)
		ins.delivered.Inc()
		go s.close(ev.Err)
		return
	}
	select {
	case s.ch <- ev:
		s.delivered.Add(1)
		ins.delivered.Inc()
		return
	default:
	}
	if s.policy == PolicyFailFast {
		err := fmt.Errorf("squery: subscription %d overflowed its queue (cap %d) under PolicyFailFast", s.id, cap(s.ch))
		ins.failfast.Inc()
		go s.close(err)
		return
	}
	// Shed and resync: everything still queued (and the frame that did
	// not fit) is superseded by one snapshot of the standing result.
	dropped := uint64(1)
	for {
		select {
		case <-s.ch:
			dropped++
			continue
		default:
		}
		break
	}
	s.shed.Add(dropped)
	ins.shed.Add(int64(dropped))
	snap := s.sq.Snapshot()
	select {
	case s.ch <- snap:
		s.delivered.Add(1)
		ins.delivered.Inc()
		s.resyncs.Add(1)
		ins.resyncs.Inc()
	default:
		// A racing consumer refilling the queue is impossible (only this
		// goroutine sends), so the slot freed above is still free.
	}
}

// dropSub unregisters an ended subscription.
func (e *Engine) dropSub(id int64) {
	e.subMu.Lock()
	delete(e.subs, id)
	e.subMu.Unlock()
	e.subIns.active.Add(-1)
}

// Subscriptions returns the accounting of every live subscription,
// ordered by id — the programmatic twin of sys.subscriptions.
func (e *Engine) Subscriptions() []SubStats {
	e.subMu.Lock()
	subs := make([]*Subscription, 0, len(e.subs))
	for _, s := range e.subs {
		subs = append(subs, s)
	}
	e.subMu.Unlock()
	out := make([]SubStats, len(subs))
	for i, s := range subs {
		out[i] = s.Stats()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Arrangements returns the shared arrangements currently maintained,
// sorted by table — the programmatic twin of sys.arrangements.
func (e *Engine) Arrangements() []ArrangementInfo { return e.arr.Infos() }

// HTTPSubscribe adapts Subscribe to obshttp.Options.Subscribe, backing
// the /subscribe Server-Sent Events endpoint.
func (e *Engine) HTTPSubscribe(query string) ([]string, <-chan SubEvent, func(), error) {
	s, err := e.Subscribe(query)
	if err != nil {
		return nil, nil, nil, err
	}
	return s.Columns(), s.Events(), s.Close, nil
}
