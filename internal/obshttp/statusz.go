package obshttp

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"squery/internal/metrics"
)

// statusz: a one-page plain-text health summary of a running engine —
// event-time lag per operator instance, backpressure per stage, the
// slowest recent queries, and sparklines over the registry's metric
// history. The same renderer backs GET /statusz and the REPL's \health
// meta-command, so both surfaces always agree; it reads only the metrics
// registry, never the engine, keeping the obs plane cycle-free.

// pressureWarn is the pressure score (permille) at and above which a
// stage is flagged in the backpressure section.
const pressureWarn = 500

// WriteStatus renders the health summary. A nil registry (metrics
// disabled) renders a one-line notice.
func WriteStatus(w io.Writer, reg *metrics.Registry) {
	if reg == nil {
		fmt.Fprintln(w, "statusz: metrics disabled")
		return
	}
	now := time.Now()
	vals := reg.Values("operator")
	writeWatermarkStatus(w, vals, now)
	writeBackpressureStatus(w, vals)
	writeSlowQueryStatus(w, reg)
	writeHistoryStatus(w, reg)
}

// opRow is one operator instance's health snapshot for sorting.
type opRow struct {
	id string
	v  map[string]int64
}

// opRows collects the operator instances carrying marker, sorted by the
// named metric, highest first (then by id for stability).
func opRows(vals map[string]map[string]int64, marker, sortBy string) []opRow {
	rows := make([]opRow, 0, len(vals))
	for id, v := range vals {
		if _, ok := v[marker]; ok {
			rows = append(rows, opRow{id, v})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if a, b := rows[i].v[sortBy], rows[j].v[sortBy]; a != b {
			return a > b
		}
		return rows[i].id < rows[j].id
	})
	return rows
}

const statuszTop = 16

func writeWatermarkStatus(w io.Writer, vals map[string]map[string]int64, now time.Time) {
	rows := opRows(vals, "watermark_us", "watermark_lag_us")
	fmt.Fprintf(w, "== watermarks (%d instances, worst lag first) ==\n", len(rows))
	if len(rows) == 0 {
		fmt.Fprintln(w, "  no operator instances")
		return
	}
	n := len(rows)
	if n > statuszTop {
		n = statuszTop
	}
	for _, r := range rows[:n] {
		lag := time.Duration(r.v["watermark_lag_us"]) * time.Microsecond
		state := ""
		last := r.v["last_record_us"]
		if last == 0 {
			state = " idle"
		} else if age := now.Sub(time.UnixMicro(last)); age >= metrics.IdleAfter {
			state = fmt.Sprintf(" idle (last record %s ago)", age.Round(time.Millisecond))
		}
		wm := "none"
		if us := r.v["watermark_us"]; us > 0 {
			wm = time.UnixMicro(us).Format("15:04:05.000")
		}
		fmt.Fprintf(w, "  %-24s lag=%-12s watermark=%s%s\n", r.id, lag.Round(time.Millisecond), wm, state)
	}
	if len(rows) > n {
		fmt.Fprintf(w, "  ... %d more\n", len(rows)-n)
	}
}

func writeBackpressureStatus(w io.Writer, vals map[string]map[string]int64) {
	rows := opRows(vals, "pressure_permille", "pressure_permille")
	pressured := 0
	for _, r := range rows {
		if r.v["pressure_permille"] >= pressureWarn {
			pressured++
		}
	}
	fmt.Fprintf(w, "\n== backpressure (%d instances, %d pressured) ==\n", len(rows), pressured)
	if len(rows) == 0 {
		fmt.Fprintln(w, "  no operator instances")
		return
	}
	n := len(rows)
	if n > statuszTop {
		n = statuszTop
	}
	for _, r := range rows[:n] {
		mark := ""
		if r.v["pressure_permille"] >= pressureWarn {
			mark = "  <-- PRESSURED"
		}
		fmt.Fprintf(w, "  %-24s pressure=%4d‰ inbox=%d/%d blocked=%d sends (%s)%s\n",
			r.id, r.v["pressure_permille"], r.v["inbox_depth"], r.v["inbox_capacity"],
			r.v["blocked_sends"],
			(time.Duration(r.v["blocked_send_ns"]) * time.Nanosecond).Round(time.Millisecond),
			mark)
	}
	if len(rows) > n {
		fmt.Fprintf(w, "  ... %d more\n", len(rows)-n)
	}
}

func writeSlowQueryStatus(w io.Writer, reg *metrics.Registry) {
	evs := reg.Log("slow_queries", 0).Events()
	sort.Slice(evs, func(i, j int) bool {
		wi, _ := evs[i].Fields["wallUs"].(int64)
		wj, _ := evs[j].Fields["wallUs"].(int64)
		if wi != wj {
			return wi > wj
		}
		return evs[i].Seq > evs[j].Seq
	})
	fmt.Fprintf(w, "\n== slow queries (%d retained, slowest first) ==\n", len(evs))
	if len(evs) == 0 {
		fmt.Fprintln(w, "  none")
		return
	}
	n := len(evs)
	if n > 10 {
		n = 10
	}
	for _, ev := range evs[:n] {
		wall, _ := ev.Fields["wallUs"].(int64)
		scanned, _ := ev.Fields["rowsScanned"].(int64)
		bytes, _ := ev.Fields["bytesShipped"].(int64)
		peak, _ := ev.Fields["peakMemBytes"].(int64)
		stages, _ := ev.Fields["stages"].(string)
		q, _ := ev.Fields["query"].(string)
		if len(q) > 60 {
			q = q[:57] + "..."
		}
		fmt.Fprintf(w, "  %-10s rows=%-8d bytes=%-8d peakMem=%-8d %s\n    %s\n",
			time.Duration(wall)*time.Microsecond, scanned, bytes, peak, q, stages)
	}
}

// sparkChars are the eight levels of a one-line sparkline.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// sparkline scales vals into ▁..█; an empty or all-zero series renders
// flat.
func sparkline(vals []float64) string {
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(sparkChars)-1))
		}
		b.WriteRune(sparkChars[i])
	}
	return b.String()
}

// counterRateSeries sums the counters matching (subsystem, metric) in each
// history snapshot and returns the per-second rate between consecutive
// snapshots.
func counterRateSeries(snaps []metrics.HistorySnapshot, subsystem, metric string) []float64 {
	sums := make([]int64, len(snaps))
	for i, s := range snaps {
		for j, se := range s.Series {
			if se.Kind == "counter" && se.Key.Subsystem == subsystem && se.Key.Metric == metric {
				sums[i] += s.Values[j]
			}
		}
	}
	out := make([]float64, 0, len(snaps))
	for i := 1; i < len(snaps); i++ {
		out = append(out, metrics.Rate(sums[i-1], sums[i], snaps[i-1].At, snaps[i].At))
	}
	return out
}

// gaugeMaxSeries tracks the per-snapshot maximum of the gauges matching
// (subsystem, metric).
func gaugeMaxSeries(snaps []metrics.HistorySnapshot, subsystem, metric string) []float64 {
	out := make([]float64, len(snaps))
	for i, s := range snaps {
		for j, se := range s.Series {
			if se.Kind == "gauge" && se.Key.Subsystem == subsystem && se.Key.Metric == metric {
				if v := float64(s.Values[j]); v > out[i] {
					out[i] = v
				}
			}
		}
	}
	return out
}

func writeHistoryStatus(w io.Writer, reg *metrics.Registry) {
	snaps := reg.History()
	fmt.Fprintf(w, "\n== history (%d snapshots", len(snaps))
	if len(snaps) >= 2 {
		fmt.Fprintf(w, ", %s..%s",
			snaps[0].At.Format("15:04:05"), snaps[len(snaps)-1].At.Format("15:04:05"))
	}
	fmt.Fprintln(w, ") ==")
	if len(snaps) < 2 {
		fmt.Fprintln(w, "  not enough history yet (is retention on?)")
		return
	}
	line := func(label, spark, last string) {
		fmt.Fprintf(w, "  %-14s %s %s\n", label, spark, last)
	}
	if s := counterRateSeries(snaps, "operator", "records_in"); len(s) > 0 {
		line("ingest rate", sparkline(s), fmtRate(s[len(s)-1])+"/s")
	}
	if s := counterRateSeries(snaps, "sql", "queries"); len(s) > 0 {
		line("query rate", sparkline(s), fmtRate(s[len(s)-1])+"/s")
	}
	if s := gaugeMaxSeries(snaps, "operator", "watermark_lag_us"); len(s) > 0 {
		last := time.Duration(s[len(s)-1]) * time.Microsecond
		line("max lag", sparkline(s), last.Round(time.Millisecond).String())
	}
	if s := gaugeMaxSeries(snaps, "operator", "pressure_permille"); len(s) > 0 {
		line("max pressure", sparkline(s), strconv.FormatFloat(s[len(s)-1], 'f', 0, 64)+"‰")
	}
}

func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return strconv.FormatFloat(v/1e6, 'f', 1, 64) + "M"
	case v >= 1e3:
		return strconv.FormatFloat(v/1e3, 'f', 1, 64) + "k"
	default:
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
}
