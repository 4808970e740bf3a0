package metrics

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The reference readers below walk the registry's instrument maps on every
// call, as the registry did before every reader went through the series
// table. They are the oracle of TestRegistryReadersMatchReference.

func refValues(r *Registry, subsystem string) map[string]map[string]int64 {
	out := make(map[string]map[string]int64)
	put := func(k InstrumentKey, v int64) {
		m := out[k.ID]
		if m == nil {
			m = make(map[string]int64)
			out[k.ID] = m
		}
		m[k.Metric] = v
	}
	r.mu.RLock()
	for k, c := range r.counters {
		if k.Subsystem == subsystem {
			put(k, c.Value())
		}
	}
	for k, g := range r.gauges {
		if k.Subsystem == subsystem {
			put(k, g.Value())
		}
	}
	fns := make(map[InstrumentKey]func() int64)
	for k, fn := range r.derived {
		if k.Subsystem == subsystem {
			fns[k] = fn
		}
	}
	r.mu.RUnlock()
	for k, fn := range fns {
		put(k, fn())
	}
	return out
}

func refHistogramsIn(r *Registry, subsystem string) map[string]map[string]*Histogram {
	out := make(map[string]map[string]*Histogram)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, h := range r.hists {
		if k.Subsystem != subsystem {
			continue
		}
		m := out[k.ID]
		if m == nil {
			m = make(map[string]*Histogram)
			out[k.ID] = m
		}
		m[k.Metric] = h
	}
	return out
}

type refPoint struct {
	Key     InstrumentKey
	Kind    string
	Value   int64
	Summary *Summary
}

func refPoints(r *Registry) []refPoint {
	r.mu.RLock()
	var pts []refPoint
	for k, c := range r.counters {
		pts = append(pts, refPoint{Key: k, Kind: "counter", Value: c.Value()})
	}
	for k, g := range r.gauges {
		pts = append(pts, refPoint{Key: k, Kind: "gauge", Value: g.Value()})
	}
	for k, fn := range r.derived {
		pts = append(pts, refPoint{Key: k, Kind: "gauge", Value: fn()})
	}
	for k, h := range r.hists {
		s := h.Snapshot()
		pts = append(pts, refPoint{Key: k, Kind: "histogram", Value: int64(s.Count), Summary: &s})
	}
	r.mu.RUnlock()
	sort.Slice(pts, func(i, j int) bool { return keyCompare(pts[i].Key, pts[j].Key) < 0 })
	return pts
}

func refDump(r *Registry) string {
	var b strings.Builder
	for _, p := range refPoints(r) {
		switch p.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-48s %s\n", p.Key, p.Summary)
		default:
			fmt.Fprintf(&b, "%-48s %d\n", p.Key, p.Value)
		}
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.logs))
	logs := make(map[string]*EventLog, len(r.logs))
	for n, l := range r.logs {
		names = append(names, n)
		logs[n] = l
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		events := logs[n].Events()
		fmt.Fprintf(&b, "log %s (%d events):\n", n, len(events))
		for _, e := range events {
			keys := make([]string, 0, len(e.Fields))
			for k := range e.Fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "  #%d", e.Seq)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%v", k, e.Fields[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func refPrometheusText(r *Registry) string {
	type family struct {
		typ   string
		lines []string
	}
	fams := map[string]*family{}
	add := func(name, typ, line string) {
		f := fams[name]
		if f == nil {
			f = &family{typ: typ}
			fams[name] = f
		}
		f.lines = append(f.lines, line)
	}
	promFloat := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, p := range refPoints(r) {
		base := "squery_" + promName(p.Key.Subsystem) + "_" + promName(p.Key.Metric)
		label := `{id="` + promLabel(p.Key.ID) + `"}`
		switch p.Kind {
		case "counter":
			name := base + "_total"
			add(name, "counter", fmt.Sprintf("%s%s %d", name, label, p.Value))
		case "gauge":
			add(base, "gauge", fmt.Sprintf("%s%s %d", base, label, p.Value))
		case "histogram":
			name := base + "_seconds"
			s := p.Summary
			qs := make([]float64, 0, len(s.Quantiles))
			for q := range s.Quantiles {
				if q > 0 {
					qs = append(qs, q)
				}
			}
			sort.Float64s(qs)
			for _, q := range qs {
				add(name, "summary", fmt.Sprintf(`%s{id="%s",quantile="%s"} %s`,
					name, promLabel(p.Key.ID), strconv.FormatFloat(q, 'g', -1, 64),
					promFloat(s.Quantiles[q].Seconds())))
			}
			add(name, "summary", fmt.Sprintf("%s_sum%s %s", name, label, promFloat(s.Sum.Seconds())))
			add(name, "summary", fmt.Sprintf("%s_count%s %d", name, label, s.Count))
		}
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if help := promHelp[n]; help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", n, help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", n, fams[n].typ)
		for _, l := range fams[n].lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// testFielder is a typed event whose field map is built at read time.
type testFielder struct{ n int }

func (f testFielder) EventFields() map[string]any { return map[string]any{"n": f.n, "kind": "typed"} }

// TestRegistryReadersMatchReference checks that every reader walking the
// series table reads exactly what a walk of the instrument maps reads:
// byte-equal Dump and PrometheusText, equal Values and HistogramsIn maps,
// including after an instrument is created between two reads.
func TestRegistryReadersMatchReference(t *testing.T) {
	r := NewRegistry()
	r.Counter("checkpoint", "job", "commits").Add(3)
	r.Counter("checkpoint", "job2", "commits").Add(8) // two ids in one family
	r.Gauge("operator", "map/0", "node").Set(-2)
	r.Gauge("operator", "src/0", "watermark_lag_us").Set(1234) // a family with HELP
	lag := int64(17)
	r.GaugeFunc("operator", "src/1", "watermark_lag_us", func() int64 { return lag })
	r.GaugeFunc("operator", "src/1", "inbox_depth", func() int64 { return 5 })
	r.Histogram("sql", "exec", "latency") // empty
	h := r.Histogram("checkpoint", "job", "phase1")
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * 137 * time.Microsecond)
	}
	r.Counter("kv", `we"ird\id`+"\n", "hits").Inc() // an escaped label
	r.Counter("sub-sys", "a", "hits").Add(2)        // sub-sys and sub.sys share
	r.Counter("sub.sys", "b", "hits").Add(4)        // the family squery_sub_sys_hits_total
	r.Gauge("sub.sys", "c", "hits_total").Set(9)    // and a gauge sanitizes into it too
	r.Log("queries", 4).Append(map[string]any{"q": "SELECT 1", "rows": 3})
	r.Log("queries", 4).AppendFielder(testFielder{7})
	r.Log("checkpoints", 4).Append(map[string]any{"ssid": 1})

	check := func(stage string) {
		t.Helper()
		if got, want := r.Dump(), refDump(r); got != want {
			t.Fatalf("%s: Dump differs from the reference:\ngot\n%s\nwant\n%s", stage, got, want)
		}
		got, want := r.PrometheusText(), refPrometheusText(r)
		if got != want {
			t.Fatalf("%s: PrometheusText differs from the reference:\ngot\n%s\nwant\n%s", stage, got, want)
		}
		if err := ValidatePrometheusText(got); err != nil {
			t.Fatalf("%s: exposition does not validate: %v", stage, err)
		}
		for _, sub := range []string{"checkpoint", "operator", "sql", "kv", "sub-sys", "sub.sys", "none"} {
			if got, want := r.Values(sub), refValues(r, sub); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Values(%s) = %v, want %v", stage, sub, got, want)
			}
			if got, want := r.HistogramsIn(sub), refHistogramsIn(r, sub); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: HistogramsIn(%s) = %v, want %v", stage, sub, got, want)
			}
		}
	}
	check("initial")
	lag = 99
	h.Record(time.Second)
	check("after updates")
	r.Counter("operator", "map/0", "records_in").Add(11)
	r.Histogram("operator", "map/0", "process").Record(time.Millisecond)
	r.Counter("sub_sys", "d", "hits").Inc() // joins the collided family
	check("after new instruments")
}

// TestTableRebuildsOnVersion checks that readers see every instrument
// created since the last read and every re-registered derived gauge's new
// function, and that an unchanged instrument set reuses its table.
func TestTableRebuildsOnVersion(t *testing.T) {
	r := NewRegistry()
	r.Counter("kv", "p0", "gets").Add(1)
	_ = r.Values("kv")
	r.Counter("kv", "p1", "gets").Add(2)
	if got := r.Values("kv")["p1"]["gets"]; got != 2 {
		t.Fatalf("a counter created after a read reads %d, want 2", got)
	}

	r.GaugeFunc("kv", "p0", "depth", func() int64 { return 1 })
	if got := r.Values("kv")["p0"]["depth"]; got != 1 {
		t.Fatalf("derived gauge reads %d, want 1", got)
	}
	before := r.seriesTable()
	r.GaugeFunc("kv", "p0", "depth", func() int64 { return 2 })
	if got := r.Values("kv")["p0"]["depth"]; got != 2 {
		t.Fatalf("re-registered derived gauge reads %d, want 2", got)
	}
	after := r.seriesTable()
	if after == before || &after.series[0] != &before.series[0] {
		t.Fatal("a re-registration must rebuild the table and keep its unchanged series")
	}

	// On a shared key a gauge shadows a counter, and a derived gauge both.
	r.Gauge("kv", "p1", "gets").Set(5)
	if got := r.Values("kv")["p1"]["gets"]; got != 5 {
		t.Fatalf("a gauge sharing a counter's key reads %d, want the gauge's 5", got)
	}
	r.GaugeFunc("kv", "p1", "gets", func() int64 { return 6 })
	if got := r.Values("kv")["p1"]["gets"]; got != 6 {
		t.Fatalf("a derived gauge sharing a gauge's key reads %d, want 6", got)
	}
	after = r.seriesTable()

	r.Counter("kv", "p0", "gets").Inc() // an existing instrument: no new version
	_ = r.Dump()
	_ = r.PrometheusText()
	if r.seriesTable() != after {
		t.Fatal("an unchanged instrument set rebuilt its table")
	}
}

// blockingFielder's field map waits for an Append to the same log to
// return, which it can only do if the reader holds no log lock while
// materializing events.
type blockingFielder struct {
	l       *EventLog
	blocked *bool
}

func (f blockingFielder) EventFields() map[string]any {
	done := make(chan struct{})
	go func() {
		f.l.Append(map[string]any{"from": "writer"})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		*f.blocked = true
	}
	return map[string]any{"kind": "blocking"}
}

// TestEventsMaterializeOutsideLock checks that EventLog.Events builds the
// field maps of typed events after releasing the log's lock, so an Append
// never waits on a reader.
func TestEventsMaterializeOutsideLock(t *testing.T) {
	l := NewRegistry().Log("queries", 8)
	blocked := false
	l.AppendFielder(blockingFielder{l, &blocked})
	if ev := l.Events(); len(ev) != 1 || ev[0].Fields["kind"] != "blocking" {
		t.Fatalf("Events = %v, want the one blocking event", ev)
	}
	if blocked {
		t.Fatal("Append waited for Events to materialize a typed event")
	}
	if n := len(l.Events()); n != 2 {
		t.Fatalf("log holds %d events after the concurrent Append, want 2", n)
	}
}
