// Package core implements the paper's primary contribution: representing
// the live and snapshot state of every stateful stream operator as
// first-class, queryable key-value structures (Tables I and II of the
// paper), with full and incremental snapshot modes, version retention and
// pruning, and the catalog that SQL and direct-object queries resolve
// against.
//
// Layout in the KV store, per stateful operator named <op>:
//
//	<op>           live state:     key -> state object
//	snapshot_<op>  snapshot state: key -> *Chain (version chain of the
//	               state object, one version per snapshot id that touched
//	               the key; all versions of a key stay in the key's
//	               partition, preserving co-location)
//
// In the Jet-baseline mode ("blob"), snapshots are written the way Jet
// writes them without S-QUERY: one opaque serialized blob per operator
// instance, unqueryable — the delta between the two modes is exactly the
// overhead the paper's Figures 8–10 measure.
package core

import (
	"sort"
)

// Versioned is one version of a key's state: the snapshot id that produced
// it and the state object as of that snapshot. A Tombstone version records
// that the key was deleted as of that snapshot.
type Versioned struct {
	SSID      int64
	Value     any
	Tombstone bool
}

// Chain is the immutable version chain stored as the value of each key in
// a snapshot_<op> map, ascending by snapshot id. Immutability is what
// makes snapshot queries safe against concurrent checkpoints: a query that
// obtained a chain pointer sees a frozen history while the next checkpoint
// replaces the map entry with an extended copy.
type Chain struct {
	items []Versioned
}

// NewChain builds a chain from versions (they will be sorted by SSID).
// Duplicate SSIDs are a programming error; the later one wins.
func NewChain(items ...Versioned) *Chain {
	c := &Chain{items: append([]Versioned(nil), items...)}
	sort.SliceStable(c.items, func(i, j int) bool { return c.items[i].SSID < c.items[j].SSID })
	return c
}

// Len returns the number of versions in the chain.
func (c *Chain) Len() int {
	if c == nil {
		return 0
	}
	return len(c.items)
}

// Versions returns a copy of the chain's versions, ascending by SSID.
func (c *Chain) Versions() []Versioned {
	if c == nil {
		return nil
	}
	return append([]Versioned(nil), c.items...)
}

// With returns a new chain extended with the given version. Appending an
// SSID lower than the newest existing version re-sorts; the normal path
// (monotonically increasing snapshot ids) is a plain append.
func (c *Chain) With(v Versioned) *Chain {
	if c == nil || len(c.items) == 0 {
		return &Chain{items: []Versioned{v}}
	}
	last := c.items[len(c.items)-1]
	if v.SSID == last.SSID {
		// Same checkpoint writing the key twice: replace.
		items := make([]Versioned, len(c.items))
		copy(items, c.items)
		items[len(items)-1] = v
		return &Chain{items: items}
	}
	items := make([]Versioned, len(c.items), len(c.items)+1)
	copy(items, c.items)
	items = append(items, v)
	if v.SSID < last.SSID {
		sort.SliceStable(items, func(i, j int) bool { return items[i].SSID < items[j].SSID })
	}
	return &Chain{items: items}
}

// newest returns the value of the chain's newest version that is not a
// tombstone; ok is false when it has none.
func (c *Chain) newest() (value any, ok bool) {
	if c == nil {
		return nil, false
	}
	for i := len(c.items) - 1; i >= 0; i-- {
		if !c.items[i].Tombstone {
			return c.items[i].Value, true
		}
	}
	return nil, false
}

// At resolves the key's state as of snapshot target: the version with the
// largest SSID ≤ target. ok is false if the key did not exist at target
// (no version yet, or the governing version is a tombstone). This walk
// backwards over deltas is the paper's differential query process for
// incremental snapshots (§VI.A).
func (c *Chain) At(target int64) (v Versioned, ok bool) {
	if c == nil || len(c.items) == 0 {
		return Versioned{}, false
	}
	// Binary search for the first item with SSID > target.
	i := sort.Search(len(c.items), func(i int) bool { return c.items[i].SSID > target })
	if i == 0 {
		return Versioned{}, false
	}
	got := c.items[i-1]
	if got.Tombstone {
		return Versioned{}, false
	}
	return got, true
}

// Governing returns the version that governs the key's state as of
// snapshot target — the version with the largest SSID ≤ target —
// *including* tombstones, which At folds into "not found". The delta
// persister needs the distinction: a key deleted since the last durable
// snapshot must emit a tombstone delta, not silently vanish.
func (c *Chain) Governing(target int64) (v Versioned, ok bool) {
	if c == nil || len(c.items) == 0 {
		return Versioned{}, false
	}
	i := sort.Search(len(c.items), func(i int) bool { return c.items[i].SSID > target })
	if i == 0 {
		return Versioned{}, false
	}
	return c.items[i-1], true
}

// Newest returns the most recent version in the chain.
func (c *Chain) Newest() (Versioned, bool) {
	if c == nil || len(c.items) == 0 {
		return Versioned{}, false
	}
	return c.items[len(c.items)-1], true
}

// Prune returns a chain with obsolete versions removed, given the oldest
// retained snapshot id: all versions with SSID ≥ oldest are kept, plus the
// newest version with SSID < oldest, which becomes the base that queries
// at ssid == oldest fall back to for keys unchanged since. A tombstone
// base is dropped (absence already means deleted). Prune returns nil when
// nothing remains — the caller deletes the map entry. This is the
// compaction the paper applies to incremental snapshots to bound the
// differential-read overhead.
func (c *Chain) Prune(oldest int64) *Chain {
	if c == nil || len(c.items) == 0 {
		return nil
	}
	// First index with SSID >= oldest.
	i := sort.Search(len(c.items), func(i int) bool { return c.items[i].SSID >= oldest })
	start := i
	if i > 0 {
		// Keep the newest pre-oldest version as base unless tombstone.
		if !c.items[i-1].Tombstone {
			start = i - 1
		}
	}
	if start == 0 {
		return c
	}
	if start >= len(c.items) {
		return nil
	}
	items := make([]Versioned, len(c.items)-start)
	copy(items, c.items[start:])
	return &Chain{items: items}
}
