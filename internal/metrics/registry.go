package metrics

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// This file applies the paper's own thesis to the processor itself: the
// runtime's telemetry — operator throughput, barrier-alignment stalls,
// checkpoint phase timings, per-partition KV and query-scan activity — is
// collected in a concurrent Registry instead of ad-hoc fields, and exposed
// through the same SQL surface as user state (the sys.* virtual tables
// registered by the engine).
//
// Instruments are keyed by (subsystem, id, metric): the subsystem names the
// layer ("operator", "checkpoint", "kv", "sql"), the id names the instance
// within it ("orderstate/2", "p17", a job name), and the metric names the
// measurement. Hot paths resolve an instrument once and then pay a single
// atomic op per event; a nil *Registry yields nil instruments whose methods
// are no-ops, so instrumentation can be compiled in unconditionally and
// disabled wholesale (the no-op-registry baseline of the overhead
// experiment in EXPERIMENTS.md).

// InstrumentKey identifies one instrument in a Registry.
type InstrumentKey struct {
	Subsystem string
	ID        string
	Metric    string
}

// String renders the key in the dump format: subsystem/id/metric.
func (k InstrumentKey) String() string {
	return k.Subsystem + "/" + k.ID + "/" + k.Metric
}

// Counter is a monotonically increasing event count. The nil counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add records n events.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc records one event.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The nil gauge is a valid no-op
// instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the current value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// IdleAfter is how long without a processed record an operator instance
// must be before sys.watermarks and /statusz report it idle. Idleness is
// judged at read time from the last_record_us gauge, so a stalled stage
// flips to idle without any hot-path bookkeeping.
const IdleAfter = time.Second

// Event is one entry of an EventLog: an opaque field set plus a
// registry-assigned monotone sequence number.
type Event struct {
	Seq    uint64
	Fields map[string]any
}

// EventLog is a bounded ring of structured events — the backing store of
// row-per-event system tables (sys.checkpoints, sys.queries). When full,
// the oldest event is evicted. The nil log is a valid no-op instrument.
type EventLog struct {
	mu    sync.Mutex
	cap   int
	seq   uint64
	buf   []rawEvent
	start int // index of the oldest event
	n     int
}

// Fielder lets hot paths append a typed event whose field map is only
// materialized when the log is read (sys.* scans, Dump) — one struct
// allocation instead of a map with boxed values per event.
type Fielder interface {
	EventFields() map[string]any
}

// rawEvent is the stored form: fields is either a map[string]any or a
// Fielder resolved at read time.
type rawEvent struct {
	seq    uint64
	fields any
}

func (e rawEvent) materialize() Event {
	switch f := e.fields.(type) {
	case map[string]any:
		return Event{Seq: e.seq, Fields: f}
	case Fielder:
		return Event{Seq: e.seq, Fields: f.EventFields()}
	default:
		return Event{Seq: e.seq}
	}
}

// Append records one event. The fields map is stored as-is; callers must
// not mutate it afterwards.
func (l *EventLog) Append(fields map[string]any) {
	l.append(fields)
}

// AppendFielder records one typed event; f.EventFields() is called lazily
// by readers, so f must be immutable after the call.
func (l *EventLog) AppendFielder(f Fielder) {
	l.append(f)
}

func (l *EventLog) append(fields any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	e := rawEvent{seq: l.seq, fields: fields}
	if l.n < l.cap {
		l.buf[(l.start+l.n)%l.cap] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % l.cap
	}
	l.mu.Unlock()
}

// Events returns the retained events, oldest first. The raw events are
// copied under the log's lock and materialized after it, so appenders never
// wait on a Fielder building its field map.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	raw := make([]rawEvent, l.n)
	for i := range raw {
		raw[i] = l.buf[(l.start+i)%l.cap]
	}
	l.mu.Unlock()
	out := make([]Event, len(raw))
	for i, e := range raw {
		out[i] = e.materialize()
	}
	return out
}

// Registry is a concurrent get-or-create registry of counters, gauges,
// histograms and event logs. All methods are safe for concurrent use; the
// nil *Registry returns nil (no-op) instruments everywhere.
type Registry struct {
	mu       sync.RWMutex
	counters map[InstrumentKey]*Counter
	gauges   map[InstrumentKey]*Gauge
	derived  map[InstrumentKey]func() int64
	hists    map[InstrumentKey]*Histogram
	logs     map[string]*EventLog
	// version counts instrument and log creations and derived-gauge
	// registrations, so readers know when to rebuild the series table.
	version uint64

	tmu   sync.Mutex   // guards table
	table *seriesTable // the instrument set at the last read

	hist historyRing // periodic snapshot ring behind Retain / sys.history
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[InstrumentKey]*Counter),
		gauges:   make(map[InstrumentKey]*Gauge),
		derived:  make(map[InstrumentKey]func() int64),
		hists:    make(map[InstrumentKey]*Histogram),
		logs:     make(map[string]*EventLog),
	}
}

// GaugeFunc registers a derived gauge: fn is evaluated at read time
// (Values, Dump, history captures, the Prometheus exposition), so the
// reported value is always current without any hot-path writes — the
// instrument behind freshness-sensitive series like watermark lag and
// queue depth. Re-registering the same key replaces the function (workers
// re-resolve instruments on every restart). fn must be safe for
// concurrent use and must not call back into the registry.
func (r *Registry) GaugeFunc(subsystem, id, metric string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	k := InstrumentKey{subsystem, id, metric}
	r.mu.Lock()
	r.derived[k] = fn
	r.version++ // the series table holds the function
	r.mu.Unlock()
}

// Counter returns (creating if absent) the counter for the key.
func (r *Registry) Counter(subsystem, id, metric string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counters, InstrumentKey{subsystem, id, metric}, func() *Counter { return &Counter{} })
}

// Gauge returns (creating if absent) the gauge for the key.
func (r *Registry) Gauge(subsystem, id, metric string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, InstrumentKey{subsystem, id, metric}, func() *Gauge { return &Gauge{} })
}

// Histogram returns (creating if absent) the histogram for the key.
func (r *Registry) Histogram(subsystem, id, metric string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.hists, InstrumentKey{subsystem, id, metric}, NewHistogram)
}

// Log returns (creating if absent) the named event log. The capacity is
// applied only on creation; later calls may pass any value.
func (r *Registry) Log(name string, capacity int) *EventLog {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.logs, name, func() *EventLog {
		if capacity < 1 {
			capacity = 128
		}
		return &EventLog{cap: capacity, buf: make([]rawEvent, capacity)}
	})
}

// getOrCreate returns m[k], creating it with mk if absent. A creation bumps
// the registry's version.
func getOrCreate[K comparable, V any](r *Registry, m map[K]*V, k K, mk func() *V) *V {
	r.mu.RLock()
	v := m[k]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[k]; v == nil {
		v = mk()
		m[k] = v
		r.version++
	}
	return v
}

// seriesTable is the registry's instrument set at one version: its series
// sorted by key (equal keys by kind: counter, gauge, derived gauge,
// histogram), a reader of each series' current value, and each histogram
// series' histogram. Every reader that enumerates instruments walks it. It
// is never mutated after its build, so readers walk it, and evaluate
// derived gauges, without any registry lock.
type seriesTable struct {
	version uint64
	series  []Series
	read    []func() int64
	hists   []*Histogram // nil for counters and gauges

	promOnce sync.Once
	prom     []promLine // the exposition order, computed by the first scrape
}

// seriesTable returns the table of the registry's current version,
// rebuilding it if an instrument or log was created or a derived gauge
// registered since the last read. A rebuild whose series equal the
// previous table's (a re-registered derived gauge) keeps the previous
// series slice, so the history captures on either side of it still share
// it.
func (r *Registry) seriesTable() *seriesTable {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	r.mu.RLock()
	defer r.mu.RUnlock()
	prev := r.table
	if prev != nil && prev.version == r.version {
		return prev
	}
	type entry struct {
		s    Series
		rank int // orders equal keys, so a later entry shadows an earlier one in Values
		read func() int64
		h    *Histogram
	}
	es := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.derived)+len(r.hists))
	for k, c := range r.counters {
		es = append(es, entry{Series{k, "counter"}, 0, c.Value, nil})
	}
	for k, g := range r.gauges {
		es = append(es, entry{Series{k, "gauge"}, 1, g.Value, nil})
	}
	for k, fn := range r.derived {
		es = append(es, entry{Series{k, "gauge"}, 2, fn, nil})
	}
	for k, h := range r.hists {
		es = append(es, entry{Series{k, "histogram"}, 3, func() int64 { return int64(h.Count()) }, h})
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Or(keyCompare(a.s.Key, b.s.Key), a.rank-b.rank) })
	t := &seriesTable{version: r.version, series: make([]Series, len(es)),
		read: make([]func() int64, len(es)), hists: make([]*Histogram, len(es))}
	for i, e := range es {
		t.series[i], t.read[i], t.hists[i] = e.s, e.read, e.h
	}
	if prev != nil && slices.Equal(prev.series, t.series) {
		t.series = prev.series
	}
	r.table = t
	return t
}

// span returns the index range of the subsystem's series.
func (t *seriesTable) span(subsystem string) (lo, hi int) {
	lo = sort.Search(len(t.series), func(i int) bool { return t.series[i].Key.Subsystem >= subsystem })
	hi = sort.Search(len(t.series), func(i int) bool { return t.series[i].Key.Subsystem > subsystem })
	return lo, hi
}

// keyCompare orders instrument keys by subsystem, then id, then metric.
func keyCompare(a, b InstrumentKey) int {
	return cmp.Or(strings.Compare(a.Subsystem, b.Subsystem), strings.Compare(a.ID, b.ID), strings.Compare(a.Metric, b.Metric))
}

// Values returns a point-in-time copy of every counter and gauge value in
// the subsystem, keyed by instrument id then metric name. Gauges shadow
// counters on (impossible by convention) key collisions.
func (r *Registry) Values(subsystem string) map[string]map[string]int64 {
	if r == nil {
		return nil
	}
	t := r.seriesTable()
	out := make(map[string]map[string]int64)
	lo, hi := t.span(subsystem)
	for i := lo; i < hi; i++ {
		if t.hists[i] == nil {
			put(out, t.series[i].Key, t.read[i]())
		}
	}
	return out
}

// HistogramsIn returns the subsystem's histograms keyed by instrument id
// then metric name. The histograms are live (shared), not copies.
func (r *Registry) HistogramsIn(subsystem string) map[string]map[string]*Histogram {
	if r == nil {
		return nil
	}
	t := r.seriesTable()
	out := make(map[string]map[string]*Histogram)
	lo, hi := t.span(subsystem)
	for i := lo; i < hi; i++ {
		if h := t.hists[i]; h != nil {
			put(out, t.series[i].Key, h)
		}
	}
	return out
}

// put sets out[k.ID][k.Metric] = v.
func put[V any](out map[string]map[string]V, k InstrumentKey, v V) {
	m := out[k.ID]
	if m == nil {
		m = make(map[string]V)
		out[k.ID] = m
	}
	m[k.Metric] = v
}

// Dump renders the full registry as plain text: one line per counter and
// gauge, one summary line per histogram (including histograms with no
// observations: an instrument's existence is itself information), in key
// order, then each event log. This is the format the -metrics flags of
// cmd/squery, cmd/squery-bench and cmd/squery-soak emit. The instrument
// lines are appended into one buffer — a histogram's fields read through
// one lock and formatted as Summary.String formats them — so a dump costs
// a handful of allocations, not several per line.
func (r *Registry) Dump() string {
	if r == nil {
		return "(metrics disabled)\n"
	}
	t := r.seriesTable()
	b := make([]byte, 0, 96*len(t.series))
	qv := make([]time.Duration, len(PaperPercentiles))
	for i, s := range t.series {
		b = appendKey(b, s.Key)
		b = append(b, ' ')
		if h := t.hists[i]; h != nil {
			count, sum := h.paperQuantiles(qv)
			b = appendSummary(b, count, sum, qv)
		} else {
			b = strconv.AppendInt(b, t.read[i](), 10)
		}
		b = append(b, '\n')
	}
	r.mu.RLock()
	logs := maps.Clone(r.logs)
	r.mu.RUnlock()
	for _, n := range sortedKeys(logs) {
		events := logs[n].Events()
		b = fmt.Appendf(b, "log %s (%d events):\n", n, len(events))
		for _, e := range events {
			b = fmt.Appendf(b, "  #%d", e.Seq)
			for _, k := range sortedKeys(e.Fields) {
				b = fmt.Appendf(b, " %s=%v", k, e.Fields[k])
			}
			b = append(b, '\n')
		}
	}
	return string(b)
}

// dumpKeyWidth is the width a dump line pads its key to.
const dumpKeyWidth = 48

// appendKey appends k as InstrumentKey.String renders it, padded with
// spaces to dumpKeyWidth characters.
func appendKey(b []byte, k InstrumentKey) []byte {
	n := len(b)
	b = append(b, k.Subsystem...)
	b = append(b, '/')
	b = append(b, k.ID...)
	b = append(b, '/')
	b = append(b, k.Metric...)
	for w := utf8.RuneCount(b[n:]); w < dumpKeyWidth; w++ {
		b = append(b, ' ')
	}
	return b
}

// paperLabels holds " p<percentile>=" for each of PaperPercentiles, as
// Summary.String labels them.
var paperLabels = func() []string {
	out := make([]string, len(PaperPercentiles))
	for i, q := range PaperPercentiles {
		out[i] = " p" + trimPct(q) + "="
	}
	return out
}()

// appendSummary appends what Summary.String renders for a histogram of
// count observations summing to sum, with qv[i] its value at
// PaperPercentiles[i].
func appendSummary(b []byte, count uint64, sum time.Duration, qv []time.Duration) []byte {
	var mean time.Duration
	if count > 0 {
		mean = sum / time.Duration(count)
	}
	b = append(b, "count="...)
	b = strconv.AppendUint(b, count, 10)
	b = append(b, " mean="...)
	b = append(b, round(mean).String()...)
	for i, label := range paperLabels {
		b = append(b, label...)
		b = append(b, round(qv[i]).String()...)
	}
	return b
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
