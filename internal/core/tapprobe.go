package core

import "squery/internal/kv"

// ArrangeRegistry, Arrangement and ArrangementInfo are the names the bench
// module's tap-apply probe (bench/layers.go) builds against. Nothing in
// this module uses them: a standing query taps its tables' live maps
// itself (TableRef.Attach), and sys.arrangements reads kv.Store.TapInfos.
// They hold no state of their own.
//
// Deprecated: attach a kv.Tap and read kv.Store.TapInfos.
type ArrangeRegistry struct{ store *kv.Store }

// NewArrangeRegistry returns a registry over the store.
//
// Deprecated: attach a kv.Tap and read kv.Store.TapInfos.
func NewArrangeRegistry(store *kv.Store) *ArrangeRegistry { return &ArrangeRegistry{store} }

// Acquire attaches a tap that drops every delta to the named live table.
// Release detaches it.
func (r *ArrangeRegistry) Acquire(table string) (*Arrangement, error) {
	a := &Arrangement{m: r.store.GetMap(LiveMapName(table))}
	a.m.AttachTap(a)
	return a, nil
}

// Infos reports every tapped map, sorted by name.
func (r *ArrangeRegistry) Infos() []ArrangementInfo {
	taps := r.store.TapInfos()
	out := make([]ArrangementInfo, len(taps))
	for i, t := range taps {
		out[i] = ArrangementInfo{Table: t.Map, Applied: t.Deltas}
	}
	return out
}

// Arrangement is one tap Acquire attached.
type Arrangement struct{ m *kv.Map }

// OnDeltas implements kv.Tap.
func (*Arrangement) OnDeltas([]kv.Delta) {}

// Release detaches the tap.
func (a *Arrangement) Release() { a.m.DetachTap(a) }

// ArrangementInfo is one tapped map and the deltas handed to its taps.
type ArrangementInfo struct {
	Table   string
	Applied int64
}
