// Package plan defines the typed plan tree the SQL layer lowers a parsed
// SELECT into. One tree is the single source of truth for three
// consumers: the streaming executor walks it to run the query (each node
// self-reports rows and wall time into its Stats), EXPLAIN renders it
// without executing, and EXPLAIN ANALYZE renders the exact tree an
// execution ran, annotated with the stats that execution recorded.
//
// The package is pure data plus rendering: it knows nothing about the
// SQL AST, the catalog or the executor. Expressions arrive pre-rendered
// as strings; pushdown decisions arrive as fields on Scan. That keeps
// the dependency arrow pointing one way (sql -> plan) and makes the tree
// trivially inspectable from tests.
package plan

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Stats is one node's execution record, written concurrently by the scan
// and pipeline goroutines and read once at render/metrics time.
type Stats struct {
	// In counts rows entering the node (recorded by Filter).
	In atomic.Int64
	// Rows counts rows the node emitted. For Scan this is the rows that
	// passed the pushed filter and went on into the fragment; for a probed
	// Scan, the looked-up rows that did.
	Rows atomic.Int64
	// Examined counts rows a Scan read on the owning node for its pushed
	// filter to inspect (equals Rows when nothing was pushed); for a
	// probed Scan, the key lookups that hit.
	Examined atomic.Int64
	// Shipped counts what the node sent across the client hop: a gathered
	// Scan's rows, a Project's projected rows, an Aggregate's partial
	// groups. Zero for everything that ran inside a fragment and fed the
	// next operator in place.
	Shipped atomic.Int64
	// Parts counts partitions a Scan actually read.
	Parts atomic.Int64
	// WallNs is the summed wall time spent in this node, nanoseconds.
	WallNs atomic.Int64
}

// Node is one operator of the plan tree.
type Node interface {
	// Kind is a stable lower-case label ("scan", "filter", ...) used to
	// key per-node-kind metrics.
	Kind() string
	// Describe renders the node's static plan line (no stats).
	Describe() string
	// Annotate renders the node's [analyze: ...] payload from its Stats;
	// "" suppresses the annotation.
	Annotate() string
	// Inputs returns the node's children, build side last.
	Inputs() []Node
	// Stat returns the node's mutable execution record.
	Stat() *Stats
}

// Kinds lists every node kind, for pre-resolving per-kind instruments.
var Kinds = []string{"scan", "cojoin", "hashjoin", "filter", "aggregate", "project", "sort", "limit"}

// ScanMode says which state a Scan reads.
type ScanMode int

// Scan modes.
const (
	// Live reads the operator's live map (read uncommitted).
	Live ScanMode = iota
	// Snapshot reads the operator's snapshot state at a committed id.
	Snapshot
	// Virtual reads a provider-backed sys.* table.
	Virtual
)

// Scan is a leaf: the read of one table, partition by partition, on the
// nodes that own them. Pushdown lives here — the access path and the
// pushed predicate run where the partition lives. A Scan is one of three
// things: the driving scan of a fragment (its rows feed the join, fold or
// projection in place), the probed side of a co-partitioned join (Probe:
// no scan at all, a key lookup per driving row), or a gathered scan
// (Gathered: its rows ship to the client, which joins them there).
type Scan struct {
	stats Stats

	// Probe marks the probed side of a co-partitioned join.
	Probe bool
	// Gathered marks a scan whose rows ship to the client.
	Gathered bool

	// Table is the table name as written in the query.
	Table string
	// Mode is the state being read.
	Mode ScanMode
	// SSID is the resolved snapshot id (0 for live/virtual).
	SSID int64
	// Pinned reports whether the query pinned the ssid explicitly.
	Pinned bool
	// Unresolved carries the ssid-resolution error when a plan-only
	// EXPLAIN could not resolve a snapshot (the scan is still shown).
	Unresolved string
	// ClusterNodes is the node count the scan fans out over.
	ClusterNodes int
	// Partitions is the table's total partition count.
	Partitions int
	// PartHint, when >= 0, is the single partition a
	// `partitionKey = <lit>` predicate pruned the scan to.
	PartHint int
	// PrunedParts is the number of partitions pruning excluded.
	PrunedParts int64
	// Filter is the pushed predicate, pre-rendered ("" = none).
	Filter string
	// Cols is the column set a gathered scan ships (nil = all columns).
	Cols []string
	// Access is the chosen non-default access path, pre-rendered
	// ("index eq(zone = 'z1')", "key lookup(partitionKey = k)"); "" means
	// full scan.
	Access string
	// EstRows is the planner's candidate-row estimate for the chosen
	// path: index selectivity when Access != "", table cardinality for
	// the full scan. Meaningful only when EstValid is set (virtual tables
	// carry no statistics).
	EstRows  int64
	EstValid bool
}

// Kind implements Node.
func (s *Scan) Kind() string { return "scan" }

// Inputs implements Node.
func (s *Scan) Inputs() []Node { return nil }

// Stat implements Node.
func (s *Scan) Stat() *Stats { return &s.stats }

// Describe implements Node.
func (s *Scan) Describe() string {
	var b strings.Builder
	if s.Probe {
		fmt.Fprintf(&b, "probe %s ", s.Table)
	} else {
		fmt.Fprintf(&b, "scan %s ", s.Table)
	}
	switch {
	case s.Mode == Virtual:
		b.WriteString("virtual system table, single partition")
	case s.Unresolved != "":
		fmt.Fprintf(&b, "snapshot (unresolvable now: %s)", s.Unresolved)
	case s.Mode == Snapshot:
		how := "latest committed"
		if s.Pinned {
			how = "pinned"
		}
		fmt.Fprintf(&b, "snapshot @ ssid %d (%s)", s.SSID, how)
	default:
		b.WriteString("live (read uncommitted)")
	}
	if s.Probe {
		b.WriteString(", key lookup by the driving row's partitionKey in its own partition")
		if s.Filter != "" {
			fmt.Fprintf(&b, ", pushed filter %s", s.Filter)
		}
		return b.String()
	}
	if s.Mode != Virtual && s.Unresolved == "" {
		fmt.Fprintf(&b, ", scatter-gather over %d nodes", s.ClusterNodes)
	}
	if s.PartHint >= 0 && s.Mode != Virtual {
		fmt.Fprintf(&b, ", pruned to partition %d by partitionKey", s.PartHint)
	}
	if s.Filter != "" {
		fmt.Fprintf(&b, ", pushed filter %s", s.Filter)
	}
	switch {
	case s.Access != "":
		fmt.Fprintf(&b, ", access %s (est≈%d rows)", s.Access, s.EstRows)
	case s.EstValid:
		fmt.Fprintf(&b, ", full scan (est≈%d rows)", s.EstRows)
	}
	if s.Gathered {
		if s.Cols != nil {
			fmt.Fprintf(&b, ", ship cols (%s)", strings.Join(s.Cols, ", "))
		} else {
			b.WriteString(", ship whole rows")
		}
	}
	return b.String()
}

// Annotate implements Node.
func (s *Scan) Annotate() string {
	var b strings.Builder
	if s.Probe {
		fmt.Fprintf(&b, "probed %d key(s), %d hit(s)", s.stats.In.Load(), s.stats.Examined.Load())
		if s.Filter != "" {
			fmt.Fprintf(&b, ", %d kept", s.stats.Rows.Load())
		}
		return b.String()
	}
	fmt.Fprintf(&b, "scanned %d/%d partitions (%d pruned), %d rows",
		s.stats.Parts.Load(), s.Partitions, s.PrunedParts, s.stats.Rows.Load())
	if s.Filter != "" || s.Access != "" {
		if s.Access != "" {
			fmt.Fprintf(&b, " kept (of %d examined via %s, est≈%d)",
				s.stats.Examined.Load(), s.Access, s.EstRows)
		} else {
			fmt.Fprintf(&b, " kept (of %d examined)", s.stats.Examined.Load())
		}
	}
	if s.Gathered {
		b.WriteString(", shipped")
	}
	fmt.Fprintf(&b, ", %s", roundDur(s.stats.WallNs.Load()))
	return b.String()
}

// CoJoin is the co-partitioned USING(partitionKey) join: both sides of
// every key live in the same partition, so the fragment scans one side and
// looks each surviving row's key up in the other side's copy of the same
// partition — no hash table, no shuffle.
type CoJoin struct {
	stats Stats

	// Cond is the join condition, pre-rendered ("USING(partitionKey)",
	// "ON a.partitionKey = b.partitionKey").
	Cond string
	// Drive is the side the fragment scans, Probe the side it looks each
	// surviving row's key up in.
	Drive, Probe Node
	// DriveEst is the post-filter row estimate that chose the driving
	// side: the smaller of the two sides', or the left side's for a LEFT
	// JOIN.
	DriveEst int64
	// LeftOuter marks a LEFT JOIN: driven from the left, a probe miss keeps
	// its row with the right side NULL.
	LeftOuter bool
}

// Kind implements Node.
func (j *CoJoin) Kind() string { return "cojoin" }

// Inputs implements Node.
func (j *CoJoin) Inputs() []Node { return []Node{j.Drive, j.Probe} }

// Stat implements Node.
func (j *CoJoin) Stat() *Stats { return &j.stats }

// Describe implements Node.
func (j *CoJoin) Describe() string {
	if j.LeftOuter {
		return fmt.Sprintf("join %s co-partitioned key-lookup join, driven from the left side (est≈%d rows), one probe per surviving row (co-location, no shuffle), left outer",
			j.Cond, j.DriveEst)
	}
	return fmt.Sprintf("join %s co-partitioned key-lookup join, driven from the side with the smaller estimate after its filter (est≈%d rows), one probe per surviving row (co-location, no shuffle)",
		j.Cond, j.DriveEst)
}

// Annotate implements Node.
func (j *CoJoin) Annotate() string {
	return fmt.Sprintf("%d rows, %s", j.stats.Rows.Load(), roundDur(j.stats.WallNs.Load()))
}

// HashJoin is the general equi-join: the right (joined) side is gathered
// to the client and hashed; the left stream probes it — inside the left
// side's fragment, on the nodes that own it, unless the whole plan runs at
// the client.
type HashJoin struct {
	stats Stats

	Left, Right Node
	// Cond is the join condition, pre-rendered ("USING(x)", "ON a = b").
	Cond string
	// LeftOuter marks a LEFT JOIN (probe misses survive as NULL rows).
	LeftOuter bool
	// AtClient: the probe runs at the client (the DisablePushdown
	// reference) instead of inside the left side's fragment.
	AtClient bool
}

// Kind implements Node.
func (j *HashJoin) Kind() string { return "hashjoin" }

// Inputs implements Node.
func (j *HashJoin) Inputs() []Node { return []Node{j.Left, j.Right} }

// Stat implements Node.
func (j *HashJoin) Stat() *Stats { return &j.stats }

// Describe implements Node.
func (j *HashJoin) Describe() string {
	where := "on the owning node"
	if j.AtClient {
		where = "at the client"
	}
	s := fmt.Sprintf("join %s global hash join (build right at the client, probe left %s)", j.Cond, where)
	if j.LeftOuter {
		s += ", left outer"
	}
	return s
}

// Annotate implements Node.
func (j *HashJoin) Annotate() string {
	return fmt.Sprintf("%d rows, %s", j.stats.Rows.Load(), roundDur(j.stats.WallNs.Load()))
}

// Filter is the residual predicate — the conjuncts that need the joined
// row (multi-table, aggregate-bearing or unattributable). It runs after
// the joins, inside the fragment unless the plan runs at the client. Fully
// pushed queries have no Filter node at all.
type Filter struct {
	stats Stats

	Input Node
	// Pred is the residual predicate, pre-rendered.
	Pred string
	// AtClient: the filter runs at the client (the DisablePushdown
	// reference).
	AtClient bool
}

// Kind implements Node.
func (f *Filter) Kind() string { return "filter" }

// Inputs implements Node.
func (f *Filter) Inputs() []Node { return []Node{f.Input} }

// Stat implements Node.
func (f *Filter) Stat() *Stats { return &f.stats }

// Describe implements Node.
func (f *Filter) Describe() string {
	if f.AtClient {
		return "filter " + f.Pred + " (at the client)"
	}
	return "filter " + f.Pred + " (after the join, on the owning node)"
}

// Annotate implements Node.
func (f *Filter) Annotate() string {
	return fmt.Sprintf("kept %d/%d rows", f.stats.Rows.Load(), f.stats.In.Load())
}

// Aggregate groups the rows and evaluates aggregate expressions per group
// (one global group without GROUP BY). Inside a fragment it folds every
// row into its group's partial accumulators on the node that owns the
// row; the partial groups ship and the client merges them, applies HAVING
// and finishes the select list.
type Aggregate struct {
	stats Stats

	Input Node
	// GroupBy holds the grouping expressions, pre-rendered.
	GroupBy []string
	// Having is the post-grouping predicate, pre-rendered ("" = none).
	Having string
	// AtClient: rows fold at the client (the DisablePushdown reference).
	AtClient bool
}

// Kind implements Node.
func (a *Aggregate) Kind() string { return "aggregate" }

// Inputs implements Node.
func (a *Aggregate) Inputs() []Node { return []Node{a.Input} }

// Stat implements Node.
func (a *Aggregate) Stat() *Stats { return &a.stats }

// Describe implements Node.
func (a *Aggregate) Describe() string {
	var b strings.Builder
	if len(a.GroupBy) == 0 {
		b.WriteString("aggregate (single group)")
	} else {
		fmt.Fprintf(&b, "aggregate GROUP BY %s", strings.Join(a.GroupBy, ", "))
	}
	if a.AtClient {
		b.WriteString(", folded at the client")
	} else {
		b.WriteString(", folded per node into partial groups, merged at the client")
	}
	if a.Having != "" {
		fmt.Fprintf(&b, ", having %s", a.Having)
	}
	return b.String()
}

// Annotate implements Node.
func (a *Aggregate) Annotate() string {
	return fmt.Sprintf("%d group(s) from %d partial(s) of %d row(s), %s",
		a.stats.Rows.Load(), a.stats.Shipped.Load(), a.stats.In.Load(), roundDur(a.stats.WallNs.Load()))
}

// Project evaluates the select list per row — inside the fragment, so
// only projected values cross the client hop.
type Project struct {
	stats Stats

	Input Node
	// Items holds the select-list items, pre-rendered.
	Items []string
	// AtClient: rows project at the client (the DisablePushdown
	// reference).
	AtClient bool
}

// Kind implements Node.
func (p *Project) Kind() string { return "project" }

// Inputs implements Node.
func (p *Project) Inputs() []Node { return []Node{p.Input} }

// Stat implements Node.
func (p *Project) Stat() *Stats { return &p.stats }

// Describe implements Node.
func (p *Project) Describe() string {
	s := "project " + strings.Join(p.Items, ", ")
	if p.AtClient {
		s += " (at the client)"
	}
	return s
}

// Annotate implements Node.
func (p *Project) Annotate() string {
	return fmt.Sprintf("%d row(s), %s", p.stats.Rows.Load(), roundDur(p.stats.WallNs.Load()))
}

// Sort orders the materialized output rows.
type Sort struct {
	stats Stats

	Input Node
	// Keys holds "expr ASC|DESC" items, pre-rendered.
	Keys []string
}

// Kind implements Node.
func (s *Sort) Kind() string { return "sort" }

// Inputs implements Node.
func (s *Sort) Inputs() []Node { return []Node{s.Input} }

// Stat implements Node.
func (s *Sort) Stat() *Stats { return &s.stats }

// Describe implements Node.
func (s *Sort) Describe() string { return "sort " + strings.Join(s.Keys, ", ") }

// Annotate implements Node.
func (s *Sort) Annotate() string { return "" }

// Limit truncates the output. With EarlyStop the executor cancels every
// in-flight partition scan the moment the limit fills — the streaming
// pipeline's point: a LIMIT 10 over a million rows ships ~10.
type Limit struct {
	stats Stats

	Input Node
	N     int
	// EarlyStop reports whether filling the limit cancels upstream scans
	// (true unless the query sorts, aggregates, or disabled pushdown).
	EarlyStop bool
}

// Kind implements Node.
func (l *Limit) Kind() string { return "limit" }

// Inputs implements Node.
func (l *Limit) Inputs() []Node { return []Node{l.Input} }

// Stat implements Node.
func (l *Limit) Stat() *Stats { return &l.stats }

// Describe implements Node.
func (l *Limit) Describe() string {
	s := fmt.Sprintf("limit %d", l.N)
	if l.EarlyStop {
		s += " (early-stop: cancels scans when filled)"
	}
	return s
}

// Annotate implements Node.
func (l *Limit) Annotate() string { return "" }

// Walk visits the tree depth-first, parents before children.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, in := range n.Inputs() {
		Walk(in, fn)
	}
}
