package metrics

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// PrometheusText renders every instrument in the registry as Prometheus
// text exposition format (the /metrics wire format external scrapers
// consume). The mapping follows Prometheus conventions:
//
//   - counter ("sub", "id", "metric") → squery_sub_metric_total{id="id"}
//   - gauge                           → squery_sub_metric{id="id"}
//   - histogram → a summary family squery_sub_metric_seconds with
//     quantile-labelled series from Histogram.Quantile plus _sum and
//     _count, all in seconds.
//
// Families are emitted sorted by name, each under a single # TYPE line;
// families with a registered description (promHelp) get a # HELP line
// first; series within a family keep the registry's deterministic
// (sorted-key) order. A nil registry renders as the empty exposition.
//
// promHelp documents the health-plane families: the lag/pressure gauges
// are the ones external alerting is expected to scrape, so their meaning
// and unit live in the exposition itself. Derived gauges are evaluated at
// render time, so scraped lag is current even when the stage is frozen.
var promHelp = map[string]string{
	"squery_operator_watermark_lag_us":      "Event-time lag of the operator's current watermark behind the wall clock, in microseconds.",
	"squery_operator_watermark_us":          "Current watermark of the operator instance as microseconds since the Unix epoch (0 before the first watermark).",
	"squery_operator_last_record_us":        "Wall-clock time the operator last processed a record, microseconds since the Unix epoch (0 when idle since start).",
	"squery_operator_inbox_depth":           "Records currently queued in the operator instance's bounded inbox channel.",
	"squery_operator_inbox_capacity":        "Capacity of the operator instance's bounded inbox channel.",
	"squery_operator_send_blocked_permille": "Share of the stage's lifetime spent blocked sending downstream, in permille.",
	"squery_operator_pressure_permille":     "Backpressure score of the stage: max of inbox fill fraction and blocked-send share, in permille.",
	"squery_operator_blocked_sends_total":   "Downstream sends that found the channel full and blocked.",
	"squery_operator_blocked_send_ns_total": "Total nanoseconds spent blocked in downstream sends.",
	"squery_sql_slow_queries_total":         "Queries whose wall time exceeded the configured slow-query threshold.",
	"squery_sub_active":                     "Standing-query subscriptions currently attached to the engine.",
	"squery_sub_delivered_total":            "Subscription events delivered to subscriber queues (snapshot and delta frames).",
	"squery_sub_shed_total":                 "Events dropped because a subscriber's bounded queue overflowed.",
	"squery_sub_resyncs_total":              "Full-snapshot resync frames sent to subscribers after a shed.",
	"squery_sub_failfast_total":             "Subscriptions closed by the fail-fast overflow policy.",
}

func (r *Registry) PrometheusText() string {
	if r == nil {
		return ""
	}
	t := r.seriesTable()
	qv := make([]time.Duration, len(PaperPercentiles))
	b := make([]byte, 0, 64*len(t.series))
	for _, l := range t.promLayout() {
		b = append(b, l.head...)
		h := t.hists[l.series]
		if h == nil {
			b = strconv.AppendInt(appendSample(b, l.name, "", l.label, ""), t.read[l.series](), 10)
			b = append(b, '\n')
			continue
		}
		count, sum := h.paperQuantiles(qv)
		for j, q := range promQuantiles {
			b = strconv.AppendFloat(appendSample(b, l.name, "", l.label, q), qv[j+1].Seconds(), 'g', -1, 64)
			b = append(b, '\n')
		}
		b = strconv.AppendFloat(appendSample(b, l.name, "_sum", l.label, ""), sum.Seconds(), 'g', -1, 64)
		b = append(b, '\n')
		b = strconv.AppendUint(appendSample(b, l.name, "_count", l.label, ""), count, 10)
		b = append(b, '\n')
	}
	return string(b)
}

// promLine is one series' place in the exposition: its family's name, its
// escaped id label and, on a family's first series, the family's # HELP
// and # TYPE lines.
type promLine struct {
	series            int
	name, label, head string
}

// promQuantiles are the quantile-label tails of a summary's series, in
// PaperPercentiles[1:] order: p0 (the minimum) has no summary-quantile
// analogue.
var promQuantiles = func() []string {
	qs := make([]string, len(PaperPercentiles)-1)
	for i, q := range PaperPercentiles[1:] {
		qs[i] = `",quantile="` + strconv.FormatFloat(q, 'g', -1, 64)
	}
	return qs
}()

// promLayout returns the table's series in exposition order, computing it
// on the table's first scrape: families sorted by name, a family's series
// in table order. A series' family name is its subsystem and metric,
// sanitized, with a suffix per kind; series whose names sanitize alike
// share one family, typed by its first series.
func (t *seriesTable) promLayout() []promLine {
	t.promOnce.Do(func() {
		ls := make([]promLine, len(t.series))
		for i, s := range t.series {
			name := "squery_" + promName(s.Key.Subsystem) + "_" + promName(s.Key.Metric) + promSuffix[s.Kind]
			ls[i] = promLine{series: i, name: name, label: promLabel(s.Key.ID)}
		}
		slices.SortFunc(ls, func(a, b promLine) int { return cmp.Or(strings.Compare(a.name, b.name), a.series-b.series) })
		for j := range ls {
			l := &ls[j]
			if j > 0 && l.name == ls[j-1].name {
				l.name = ls[j-1].name // one copy of the name per family
				continue
			}
			l.head = "# TYPE " + l.name + " " + promType[t.series[l.series].Kind] + "\n"
			if help := promHelp[l.name]; help != "" {
				l.head = "# HELP " + l.name + " " + help + "\n" + l.head
			}
		}
		t.prom = ls
	})
	return t.prom
}

// promSuffix and promType map a series kind onto its family-name suffix
// and Prometheus metric type.
var (
	promSuffix = map[string]string{"counter": "_total", "gauge": "", "histogram": "_seconds"}
	promType   = map[string]string{"counter": "counter", "gauge": "gauge", "histogram": "summary"}
)

// appendSample appends a sample line's `name{id="label"} ` prefix, extra
// being the label set's tail after the id.
func appendSample(b []byte, name, suffix, label, extra string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, `{id="`...)
	b = append(b, label...)
	b = append(b, extra...)
	return append(b, `"} `...)
}

// promName maps an internal subsystem/metric name onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_]; anything else becomes '_'.
func promName(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func promLabel(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
