package dataflow

import (
	"encoding/gob"
	"sort"
	"time"

	"squery/internal/partition"
)

// Event-time windowing. Sources emit watermarks — monotone lower bounds
// on future event times — downstream; operators track the minimum
// watermark across their producers and fire event-time logic when it
// advances. Window state lives in the operator's S-QUERY backend like any
// other keyed state, so open windows are live- and snapshot-queryable —
// "opening the black box" applies to in-flight aggregations too.

// WatermarkPolicy configures watermark emission for a source vertex.
type WatermarkPolicy struct {
	// Lag is subtracted from the highest event time seen: events up to
	// Lag out of order are still on time.
	Lag time.Duration
	// Every is the number of records between watermark emissions
	// (default 64).
	Every int
}

func (p WatermarkPolicy) every() int {
	if p.Every <= 0 {
		return 64
	}
	return p.Every
}

// WatermarkHandler is implemented by processors with event-time logic;
// OnWatermark fires when the operator's combined watermark advances.
type WatermarkHandler interface {
	OnWatermark(wm time.Time, emit Emit)
}

// WindowResult is the output of a closed window.
type WindowResult struct {
	Start time.Time
	End   time.Time
	Value any
}

// WindowState is the queryable per-key state of a windowing operator:
// the open (not yet fired) windows and their running aggregates. Exported
// fields make it a SQL row (openWindows column).
type WindowState struct {
	// Open maps window start (unix nanos) to the running aggregate.
	Open map[int64]any
	// OpenWindows is the number of currently open windows.
	OpenWindows int
}

func init() { gob.Register(WindowState{}) }

// TumblingWindowVertex builds a keyed event-time tumbling-window operator:
// records are assigned to [start, start+size) by their EventTime and
// reduced with `reduce` (acc is nil for the window's first record); when
// the watermark passes a window's end, one WindowResult record per key is
// emitted and the window's state is dropped. End-of-stream flushes all
// remaining windows.
func TumblingWindowVertex(name string, parallelism int, size time.Duration, reduce func(acc any, rec Record) any) *Vertex {
	return SlidingWindowVertex(name, parallelism, size, size, reduce)
}

// SlidingWindowVertex generalizes TumblingWindowVertex: windows of the
// given size start every `hop` (hop == size degenerates to tumbling; hop <
// size means each record lands in size/hop overlapping windows). hop must
// evenly divide size.
func SlidingWindowVertex(name string, parallelism int, size, hop time.Duration, reduce func(acc any, rec Record) any) *Vertex {
	if size <= 0 || hop <= 0 {
		panic("dataflow: window size and hop must be positive")
	}
	if size%hop != 0 {
		panic("dataflow: window hop must evenly divide the size")
	}
	return &Vertex{
		Name:        name,
		Kind:        KindOperator,
		Parallelism: parallelism,
		Stateful:    true,
		NewProcessor: func(ctx ProcContext) Processor {
			return &windowProc{ctx: ctx, size: size, hop: hop, reduce: reduce}
		},
	}
}

type windowProc struct {
	ctx    ProcContext
	size   time.Duration
	hop    time.Duration
	reduce func(any, Record) any
}

// windowStarts returns the starts of every window containing t: the
// newest start is t floored to the hop; earlier ones step back by hop
// while still covering t.
func (p *windowProc) windowStarts(t time.Time) []int64 {
	n := t.UnixNano()
	h := int64(p.hop)
	newest := n - (n%h+h)%h
	count := int(p.size / p.hop)
	starts := make([]int64, 0, count)
	for i := 0; i < count; i++ {
		s := newest - int64(i)*h
		if s+int64(p.size) > n { // window must still cover t
			starts = append(starts, s)
		}
	}
	return starts
}

func (p *windowProc) Process(rec Record, emit Emit) {
	st := WindowState{Open: map[int64]any{}}
	if cur, ok := p.ctx.State.Get(rec.Key); ok {
		st = cur.(WindowState)
	}
	p.copyOnWrite(&st)
	for _, start := range p.windowStarts(rec.EventTime) {
		st.Open[start] = p.reduce(st.Open[start], rec)
	}
	st.OpenWindows = len(st.Open)
	p.ctx.State.Update(rec.Key, st)
}

// copyOnWrite clones the Open map before the first mutation of this call
// so that snapshot versions holding the previous WindowState stay frozen.
func (p *windowProc) copyOnWrite(st *WindowState) {
	cp := make(map[int64]any, len(st.Open)+1)
	for k, v := range st.Open {
		cp[k] = v
	}
	st.Open = cp
}

// OnWatermark fires every window whose end is at or before the watermark,
// for every key this instance owns.
func (p *windowProc) OnWatermark(wm time.Time, emit Emit) {
	type fired struct {
		key   any
		start int64
		val   any
	}
	var all []fired
	p.ctx.State.ForEach(func(key partition.Key, value any) bool {
		st := value.(WindowState)
		for start, acc := range st.Open {
			if start+int64(p.size) <= wm.UnixNano() {
				all = append(all, fired{key: key, start: start, val: acc})
			}
		}
		return true
	})
	// Deterministic firing order: by key string then window start.
	sort.Slice(all, func(i, j int) bool {
		if all[i].start != all[j].start {
			return all[i].start < all[j].start
		}
		return lessAny(all[i].key, all[j].key)
	})
	for _, f := range all {
		cur, _ := p.ctx.State.Get(f.key)
		st := cur.(WindowState)
		cp := make(map[int64]any, len(st.Open))
		for k, v := range st.Open {
			if k != f.start {
				cp[k] = v
			}
		}
		st.Open = cp
		st.OpenWindows = len(cp)
		if st.OpenWindows == 0 {
			p.ctx.State.Delete(f.key)
		} else {
			p.ctx.State.Update(f.key, st)
		}
		emit(Record{
			Key: f.key,
			Value: WindowResult{
				Start: time.Unix(0, f.start),
				End:   time.Unix(0, f.start+int64(p.size)),
				Value: f.val,
			},
			EventTime: time.Unix(0, f.start+int64(p.size)),
		})
	}
}

// Flush closes every remaining window at end-of-stream.
func (p *windowProc) Flush(emit Emit) {
	p.OnWatermark(time.Unix(0, 1<<62), emit)
}

func lessAny(a, b any) bool {
	switch x := a.(type) {
	case int:
		if y, ok := b.(int); ok {
			return x < y
		}
	case int64:
		if y, ok := b.(int64); ok {
			return x < y
		}
	case string:
		if y, ok := b.(string); ok {
			return x < y
		}
	}
	return false
}
