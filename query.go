package squery

import (
	"fmt"
	"strings"

	"squery/internal/core"
	"squery/internal/kv"
	sqlpkg "squery/internal/sql"
)

// IsolationLevel classifies what a query may observe (§VII of the paper).
type IsolationLevel int

// Isolation levels offered by S-QUERY.
const (
	// ReadUncommitted: live-state queries. Updates are uncommitted until
	// the next checkpoint; a failure rolls the system back, so a live
	// read may have observed state that "never happened" (Figure 5).
	ReadUncommitted IsolationLevel = iota
	// ReadCommitted: live-state queries under the assumption of no
	// failures — the key's partition lock protects each read, and with
	// no rollback event every observed update is effectively durable.
	ReadCommitted
	// SnapshotIsolation: queries against a committed snapshot; the
	// snapshot id is resolved atomically, so results never mix versions.
	SnapshotIsolation
	// Serializable: snapshot queries additionally enjoy serializability
	// because state updates are serialized by design — parallel
	// single-threaded operators own disjoint key partitions, so no write
	// conflicts exist to violate a serial order (§VII).
	Serializable
)

// String implements fmt.Stringer.
func (l IsolationLevel) String() string {
	switch l {
	case ReadUncommitted:
		return "READ UNCOMMITTED"
	case ReadCommitted:
		return "READ COMMITTED"
	case SnapshotIsolation:
		return "SNAPSHOT ISOLATION"
	case Serializable:
		return "SERIALIZABLE"
	default:
		return fmt.Sprintf("IsolationLevel(%d)", int(l))
	}
}

// Query executes a SQL SELECT against the state tables of all running
// jobs. Live tables are addressed by operator name, snapshot tables as
// snapshot_<operator>; snapshot tables default to the latest committed
// snapshot unless the WHERE clause pins `ssid = <n>` (§V.C).
func (e *Engine) Query(query string) (*Result, error) {
	return e.ex.Query(query)
}

// Fault-tolerant query surface: options, policies and typed errors for
// querying a partially failed cluster, re-exported from the SQL engine.
type (
	// QueryOptions tunes per-partition timeouts and the degradation
	// policy of one query execution.
	QueryOptions = sqlpkg.ExecOpts
	// QueryPolicy selects how a query handles an unreachable or stalled
	// partition.
	QueryPolicy = sqlpkg.Policy
	// Degradation reports one partition served from a snapshot replica
	// instead of the requested table (see Result.Degraded).
	Degradation = sqlpkg.Degradation
	// PartitionUnavailableError is the typed failure of a guarded query.
	PartitionUnavailableError = sqlpkg.PartitionUnavailableError
)

// Degradation policies for QueryWithOptions.
const (
	// PolicyNone runs the query unguarded (the default).
	PolicyNone = sqlpkg.PolicyNone
	// PolicyRetry retries a faulted partition with backoff until the
	// retry deadline, then fails with PartitionUnavailableError.
	PolicyRetry = sqlpkg.PolicyRetry
	// PolicyFallback serves a faulted partition from the latest committed
	// snapshot's backup replica, reporting the isolation downgrade in
	// Result.Degraded. Requires Config.ReplicateState: without it a faulted
	// partition fails the query with PartitionUnavailableError.
	PolicyFallback = sqlpkg.PolicyFallback
	// PolicyFailFast fails the query immediately on the first faulted
	// partition.
	PolicyFailFast = sqlpkg.PolicyFailFast
)

// QueryWithOptions executes a SQL SELECT with per-partition timeouts and
// a caller-chosen degradation policy, so a stalled or unreachable
// partition cannot hang the query (§V.A meets partial failures). With
// PolicyFallback the result may mix live rows with rows from the latest
// committed snapshot; Result.Degraded lists exactly which partitions were
// downgraded and to which snapshot id.
func (e *Engine) QueryWithOptions(query string, opts QueryOptions) (*Result, error) {
	return e.ex.QueryWithOptions(query, opts)
}

// Explain returns a human-readable execution plan for a query without
// running it: resolved tables (live/snapshot and the snapshot id that
// would be used), the join strategy (co-partitioned vs global hash), the
// residual filter, and the post-processing stages.
func (e *Engine) Explain(query string) (string, error) {
	return e.ex.Explain(query)
}

// QueryIsolated executes a query after verifying it can actually deliver
// the requested isolation level: snapshot isolation and serializability
// require every table in the query to be a snapshot table — live state
// can never provide them (§VII).
func (e *Engine) QueryIsolated(query string, level IsolationLevel) (*Result, error) {
	if level == SnapshotIsolation || level == Serializable {
		tables, err := tablesOf(query)
		if err != nil {
			return nil, err
		}
		for _, t := range tables {
			if !strings.HasPrefix(strings.ToLower(t), "snapshot_") {
				return nil, fmt.Errorf(
					"squery: %s requires snapshot tables only, but query reads live table %q", level, t)
			}
		}
	}
	return e.ex.Query(query)
}

// tablesOf extracts the table names a query references.
func tablesOf(query string) ([]string, error) {
	return sqlpkg.Tables(query)
}

// ObjectView is the direct object interface to one operator's state — the
// low-latency path Figure 14 benchmarks against TSpoon. Reads go straight
// to the KV store under each key's partition read lock, without SQL
// parsing or planning.
type ObjectView struct {
	engine   *Engine
	operator string
}

// Object returns the direct object interface for an operator.
func (e *Engine) Object(operator string) ObjectView {
	return ObjectView{engine: e, operator: operator}
}

// GetLive fetches the live state objects for the given keys (read
// uncommitted). Missing keys yield nil entries, preserving order.
func (v ObjectView) GetLive(keys ...Key) []any {
	view := v.engine.clu.ClientView()
	return view.GetAll(core.LiveMapName(v.operator), keys)
}

// GetSnapshot fetches the state objects for the given keys as of snapshot
// ssid (0 = latest committed), providing snapshot isolation; the id is
// held for as long as the read runs. Missing keys yield nil entries.
func (v ObjectView) GetSnapshot(ssid int64, keys ...Key) ([]any, error) {
	tab, err := v.engine.cat.Table("snapshot_" + v.operator)
	if err != nil {
		return nil, err
	}
	target, err := tab.HoldSSID(ssid)
	if err != nil {
		return nil, err
	}
	defer tab.ReleaseSSID(target)
	return tab.GetAll(target, keys), nil
}

// ScanLive streams every live state entry of the operator.
func (v ObjectView) ScanLive(fn func(key Key, value any) bool) {
	view := v.engine.clu.ClientView()
	view.Scan(core.LiveMapName(v.operator), func(e kv.Entry) bool {
		return fn(e.Key, e.Value)
	})
}

// ScanSnapshot streams every state entry of the operator as of snapshot
// ssid (0 = latest committed), holding the id until the scan returns.
func (v ObjectView) ScanSnapshot(ssid int64, fn func(key Key, value any, versionSSID int64) bool) error {
	tab, err := v.engine.cat.Table("snapshot_" + v.operator)
	if err != nil {
		return err
	}
	target, err := tab.HoldSSID(ssid)
	if err != nil {
		return err
	}
	defer tab.ReleaseSSID(target)
	tab.Scan(target, func(r core.TableRow) bool {
		return fn(r.Key, r.Raw, r.SSID)
	})
	return nil
}
