package core

import (
	"fmt"
	"strings"

	"squery/internal/kv"
)

// The access-path abstraction: one description of *how* a partition scan
// finds its rows, shared by the planner (which chooses it), the catalog
// (which routes it to the kv layer) and EXPLAIN (which renders it). A
// full scan iterates the entries map; an index path probes a secondary
// index maintained inline on the state-update path, converting
// rows_scanned from O(table) to O(selectivity) while the pushed filter
// keeps exact semantics (the index yields a candidate superset, never a
// subset — see internal/kv/index.go).

// IndexKind re-exports the kv index structure kinds.
type IndexKind = kv.IndexKind

const (
	IndexHash  = kv.IndexHash
	IndexBTree = kv.IndexBTree
)

// PathKind discriminates the access paths a scan can take.
type PathKind int

const (
	// FullScan iterates every entry of the partition (the zero value —
	// a spec without a Path full-scans).
	FullScan PathKind = iota
	// IndexEq probes a secondary index for one value.
	IndexEq
	// IndexRange walks a B-tree index over an inclusive range.
	IndexRange
	// KeyLookup reads the one row stored under the state key Eq — what a
	// `partitionKey = <literal>` predicate asks for, served by the
	// partition's own key map instead of a walk over it. Column is
	// ColPartitionKey.
	KeyLookup
)

// AccessPath describes how partition scans of one table source find
// candidate rows. Eq/Lo/Hi are literal values from the query; bounds are
// inclusive and nil means unbounded (index-level candidates only — the
// pushed filter enforces exact and strict semantics).
type AccessPath struct {
	Kind   PathKind
	Column string
	Eq     any
	Lo, Hi any
}

// String renders the path for EXPLAIN ("index eq(zone)",
// "index range(lat)", "full scan").
func (a *AccessPath) String() string {
	if a == nil || a.Kind == FullScan {
		return "full scan"
	}
	var b strings.Builder
	switch a.Kind {
	case KeyLookup:
		fmt.Fprintf(&b, "key lookup(%s = %v)", a.Column, a.Eq)
	case IndexEq:
		fmt.Fprintf(&b, "index eq(%s = %v)", a.Column, a.Eq)
	default:
		fmt.Fprintf(&b, "index range(%s", a.Column)
		if a.Lo != nil {
			fmt.Fprintf(&b, " >= %v", a.Lo)
		}
		if a.Lo != nil && a.Hi != nil {
			b.WriteString(" and")
			fmt.Fprintf(&b, " %s", a.Column)
		}
		if a.Hi != nil {
			fmt.Fprintf(&b, " <= %v", a.Hi)
		}
		b.WriteString(")")
	}
	return b.String()
}

// lookup converts the path to a kv probe; ok is false for full scans.
func (a *AccessPath) lookup() (kv.IndexLookup, bool) {
	if a == nil {
		return kv.IndexLookup{}, false
	}
	switch a.Kind {
	case IndexEq:
		return kv.IndexLookup{Col: a.Column, Eq: a.Eq}, true
	case IndexRange:
		return kv.IndexLookup{Col: a.Column, Range: true, Lo: a.Lo, Hi: a.Hi}, true
	default:
		return kv.IndexLookup{}, false
	}
}

// ChainValueIndexer extracts a column from every live version of a
// snapshot map's version chain — the multi-valued extractor that makes
// one index serve *all* snapshot ids: the candidate set for any probe is
// the union over versions, a superset of the rows resolvable at any
// particular SSID (the At() re-resolution and the pushed filter narrow it
// back down). Chains whose versions are all tombstones index nowhere —
// a full scan never examines them either.
func ChainValueIndexer(value any, col string) (vals []any, complete bool) {
	ch, ok := value.(*Chain)
	if !ok {
		return nil, false
	}
	complete = true
	for _, v := range ch.items {
		if v.Tombstone {
			continue
		}
		f, ok := kv.AsRow(v.Value).Field(col)
		if !ok || f == nil {
			complete = false
			continue
		}
		vals = append(vals, f)
	}
	return vals, complete
}

// CreateIndex builds a secondary index on one column of a state table and
// registers it for inline maintenance on the update path. The table name
// follows the catalog convention: <op> indexes live state,
// snapshot_<op> indexes the snapshot version chains (via
// ChainValueIndexer, so the index stays valid for every queryable SSID).
// Virtual (sys.*) tables cannot be indexed. Creating an index twice is
// idempotent; the operator does not need to be registered yet — indexes
// are usually created right after job registration, before data flows.
func (c *Catalog) CreateIndex(table, column string, kind IndexKind) error {
	name := sanitize(table)
	c.mu.RLock()
	_, virt := c.virtuals[name]
	c.mu.RUnlock()
	if virt {
		return fmt.Errorf("core: cannot index virtual table %q", table)
	}
	if column == ColPartitionKey || column == ColSSID {
		return fmt.Errorf("core: cannot index pseudo-column %q (partition pruning and snapshot pinning already serve it)", column)
	}
	var extract kv.ValueIndexer
	if strings.HasPrefix(name, "snapshot_") {
		extract = ChainValueIndexer
	}
	_, err := c.store.GetMap(name).CreateIndex(column, kind, extract)
	return err
}

// HasIndex reports whether the table has a ready index on column that can
// serve equality (needRange false) or range (needRange true) probes.
func (t *TableRef) HasIndex(column string, needRange bool) bool {
	if t.virtual != nil {
		return false
	}
	return t.mapRef().HasIndex(column, needRange)
}

// EstimatePath returns the expected number of candidate rows the path
// would examine across the whole table, and whether an index can serve
// it. Full scans estimate the table size. The planner compares these to
// pick the cheapest path.
func (t *TableRef) EstimatePath(path *AccessPath) (int64, bool) {
	return t.EstimatePathIn(-1, path)
}

// EstimatePathIn is EstimatePath over the partitions a scan will visit:
// partition part alone when the plan pruned to it (one segment lock), the
// whole table when part is negative.
func (t *TableRef) EstimatePathIn(part int, path *AccessPath) (int64, bool) {
	if t.virtual != nil {
		return 0, false
	}
	if path != nil && path.Kind == KeyLookup {
		return 1, true
	}
	if lk, ok := path.lookup(); ok {
		return t.m.EstimateLookupIn(part, lk)
	}
	n, _, _ := t.m.Sample(part, nil)
	return int64(n), true
}

// mapRef returns the kv map backing this (non-virtual) table.
func (t *TableRef) mapRef() *kv.Map { return t.m }

// backingMap resolves the kv map backing this (non-virtual) table.
func (t *TableRef) backingMap() *kv.Map {
	if t.snapshot {
		return t.store.GetMap(SnapshotMapName(t.op))
	}
	return t.store.GetMap(LiveMapName(t.op))
}
