package sql

import (
	"fmt"
	"strings"
	"time"

	"squery/internal/core"
	"squery/internal/metrics"
	"squery/internal/sql/plan"
)

// Per-query resource accounting. Every execution tracks, beyond the row
// counters the executor always kept: the estimated bytes its fragments
// shipped across the client hop — which the client holds until the merge
// is done, so they are its peak memory estimate too — and the per-stage
// wall breakdown — all
// recorded into the sys.queries event and, past a configurable wall-time
// threshold, into the bounded sys.slow_queries log. This is the cost
// signal ROADMAP item 5's admission control will gate on.

// MetricsLimits bounds the executor's event logs and defines the
// slow-query threshold. The zero value selects the defaults.
type MetricsLimits struct {
	// QueryLogCapacity caps the sys.queries ring (default 256). The
	// capacity binds when the log is first created, so wire limits before
	// the first query executes.
	QueryLogCapacity int
	// SlowQueryLogCapacity caps the sys.slow_queries ring (default 64).
	SlowQueryLogCapacity int
	// SlowQueryThreshold is the wall time at or above which an execution
	// is also recorded in sys.slow_queries (default 100ms; negative
	// disables the slow log).
	SlowQueryThreshold time.Duration
}

// WithDefaults returns the limits with every unset field replaced by its
// default. The engine resolves its Config through this before wiring
// SetMetricsLimits, so the sys.* table providers and the executor agree
// on the effective capacities.
func (l MetricsLimits) WithDefaults() MetricsLimits {
	if l.QueryLogCapacity <= 0 {
		l.QueryLogCapacity = 256
	}
	if l.SlowQueryLogCapacity <= 0 {
		l.SlowQueryLogCapacity = 64
	}
	if l.SlowQueryThreshold == 0 {
		l.SlowQueryThreshold = 100 * time.Millisecond
	}
	return l
}

// SetMetricsLimits is SetMetrics with explicit log bounds and slow-query
// policy. Call before serving queries; the event-log capacities apply on
// log creation (first caller wins), which is why the engine routes its
// retention config through here rather than patching logs after the fact.
func (ex *Executor) SetMetricsLimits(reg *metrics.Registry, lim MetricsLimits) {
	lim = lim.WithDefaults()
	ex.setMetrics(reg, lim)
}

// estimateRowBytes approximates the wire footprint of one table row
// shipped with the given columns (nil = all of them). It is an estimate by
// design: accounting must not cost more than the work it measures, so
// batches sample one row and extrapolate (see estimateBatchBytes).
func estimateRowBytes(r *core.TableRow, cols []string) int64 {
	n := int64(16) + estimateValueBytes(r.Key) // struct header + key
	row := r.Row()
	if cols == nil {
		cols = row.Columns()
	}
	for _, c := range cols {
		if v, ok := row.Field(c); ok {
			n += int64(len(c)) + estimateValueBytes(v)
		}
	}
	return n
}

func estimateValueBytes(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case string:
		return int64(len(x)) + 16
	case []byte:
		return int64(len(x)) + 24
	case bool:
		return 1
	case int, int64, int32, uint64, float64, float32, time.Duration:
		return 8
	case time.Time:
		return 24
	default:
		return 32 // boxed something: a defensible guess beats reflection
	}
}

// estimateBatchBytes extrapolates a shipped row set's footprint from its
// first row.
func estimateBatchBytes(rows []core.TableRow, cols []string) int64 {
	if len(rows) == 0 {
		return 0
	}
	return estimateRowBytes(&rows[0], cols) * int64(len(rows))
}

// stageWallSummary renders the per-stage wall breakdown of an executed
// plan as a compact string ("scan=1.2ms hashjoin=340µs project=80µs"),
// aggregated by node kind. It reads the same plan.Stats EXPLAIN ANALYZE
// renders, so the sys.queries column and the analyze footer agree.
func stageWallSummary(root plan.Node) string {
	if root == nil {
		return ""
	}
	wall := map[string]int64{}
	var order []string
	plan.Walk(root, func(n plan.Node) {
		k := n.Kind()
		if _, seen := wall[k]; !seen {
			order = append(order, k)
		}
		wall[k] += n.Stat().WallNs.Load()
	})
	var b strings.Builder
	for _, k := range order {
		if wall[k] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, time.Duration(wall[k]).Round(time.Microsecond))
	}
	return b.String()
}
