package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"squery/internal/partition"
	"squery/internal/wire"
)

// Delta segments make committed checkpoints O(delta) on disk: instead of
// rewriting every key of an operator at every snapshot, a checkpoint may
// write <op>.dseg — the upserts and deletes against an earlier *base*
// snapshot. Reading state at a snapshot id then replays the chain: walk
// back over .dseg headers to the nearest full segment, apply the full
// state, then fold each delta forward (tombstones remove keys).
//
//	ss-<base>/<op>.seg       full segment (chain base)
//	ss-<mid>/<op>.dseg       delta: base=<base>
//	ss-<ssid>/<op>.dseg      delta: base=<mid>
//
// Chains are bounded by the writer's compaction policy (see
// internal/core): when a chain grows past the length cap, or a delta
// stops being small relative to the full state, the writer folds the
// accumulated state into a fresh full segment and the chain restarts.
// Commit semantics are unchanged — segments of either kind become
// durable only at the MANIFEST rename — and the GC in Prune keeps every
// base directory still reachable from a committed id, even after the id
// that wrote it left the manifest.

// dsegMagic prefixes wire-encoded delta segment files.
var dsegMagic = []byte("SQWD\x01")

// maxChainHops bounds a delta-chain walk; a longer chain means a
// corrupted base pointer loop, not a plausible store.
const maxChainHops = 1024

// DeltaEntry is one change recorded by a delta segment: an upsert of
// Key to Value, or — with Tombstone set — a delete of Key.
type DeltaEntry struct {
	Key       any
	Value     any
	Tombstone bool
}

// AppendDeltaSegment encodes a delta segment (header + entries) into
// buf. Split out from WriteDeltaSegment so the encode path can be
// benchmarked and alloc-gated without touching the filesystem.
func AppendDeltaSegment(buf []byte, base int64, entries []DeltaEntry) ([]byte, error) {
	buf = append(buf, dsegMagic...)
	buf = wire.AppendUvarint(buf, uint64(base))
	buf = wire.AppendUvarint(buf, uint64(len(entries)))
	var st wire.Stream
	var err error
	for _, e := range entries {
		if e.Tombstone {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		if buf, err = st.AppendValue(buf, e.Key); err != nil {
			return nil, fmt.Errorf("persist: encoding delta key: %w", err)
		}
		if e.Tombstone {
			continue
		}
		if buf, err = st.AppendValue(buf, e.Value); err != nil {
			return nil, fmt.Errorf("persist: encoding delta value: %w", err)
		}
	}
	return buf, nil
}

// WriteDeltaSegment persists one operator's changes since snapshot base
// as ss-<ssid>/<op>.dseg. Like full segments it lands under a temporary
// name, is fsynced, then renamed — a crash mid-write leaves nothing
// visible. The snapshot becomes durable only at Commit.
func (s *Store) WriteDeltaSegment(ssid int64, op string, base int64, entries []DeltaEntry) error {
	if base <= 0 || base >= ssid {
		return fmt.Errorf("persist: delta segment %s/ss-%d: invalid base %d", op, ssid, base)
	}
	file := op + ".dseg"
	buf, err := AppendDeltaSegment(s.segmentBuf(file, len(entries)), base, entries)
	if err != nil {
		return fmt.Errorf("persist: segment %s/ss-%d: %w", op, ssid, err)
	}
	if err := s.publish(ssid, file, buf); err != nil {
		return err
	}
	s.noteSegment(&s.deltaSegs, file, len(buf), len(entries))
	return nil
}

// ReadDeltaSegment loads one delta segment, returning the base snapshot
// id it applies against and the recorded changes.
func (s *Store) ReadDeltaSegment(ssid int64, op string) (base int64, entries []DeltaEntry, err error) {
	raw, err := os.ReadFile(filepath.Join(s.snapshotDir(ssid), op+".dseg"))
	if err != nil {
		return 0, nil, fmt.Errorf("persist: opening delta segment %s/ss-%d: %w", op, ssid, err)
	}
	return decodeDeltaSegment(raw, op, ssid)
}

func decodeDeltaSegment(raw []byte, op string, ssid int64) (base int64, entries []DeltaEntry, err error) {
	if !bytes.HasPrefix(raw, dsegMagic) {
		return 0, nil, fmt.Errorf("persist: delta segment %s/ss-%d: bad magic", op, ssid)
	}
	raw = raw[len(dsegMagic):]
	b, used := binary.Uvarint(raw)
	if used <= 0 {
		return 0, nil, fmt.Errorf("persist: delta segment %s/ss-%d: truncated base", op, ssid)
	}
	raw = raw[used:]
	n, used := binary.Uvarint(raw)
	if used <= 0 {
		return 0, nil, fmt.Errorf("persist: delta segment %s/ss-%d: truncated entry count", op, ssid)
	}
	raw = raw[used:]
	entries = make([]DeltaEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(raw) == 0 {
			return 0, nil, fmt.Errorf("persist: delta segment %s/ss-%d: truncated entry %d", op, ssid, i)
		}
		e := DeltaEntry{Tombstone: raw[0] == 1}
		raw = raw[1:]
		if e.Key, raw, err = wire.DecodeValue(raw); err != nil {
			return 0, nil, fmt.Errorf("persist: decoding delta segment %s/ss-%d: %w", op, ssid, err)
		}
		if !e.Tombstone {
			if e.Value, raw, err = wire.DecodeValue(raw); err != nil {
				return 0, nil, fmt.Errorf("persist: decoding delta segment %s/ss-%d: %w", op, ssid, err)
			}
		}
		entries = append(entries, e)
	}
	return int64(b), entries, nil
}

// readDeltaBase reads only the header of a delta segment: the base
// snapshot id it chains to. ok is false when no .dseg exists for
// (ssid, op) — the chain walk then expects a full segment there.
func (s *Store) readDeltaBase(ssid int64, op string) (base int64, ok bool, err error) {
	f, err := os.Open(filepath.Join(s.snapshotDir(ssid), op+".dseg"))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("persist: opening delta segment %s/ss-%d: %w", op, ssid, err)
	}
	defer f.Close()
	hdr := make([]byte, len(dsegMagic)+binary.MaxVarintLen64)
	n, err := io.ReadAtLeast(f, hdr, len(dsegMagic)+1)
	if err != nil {
		return 0, false, fmt.Errorf("persist: delta segment %s/ss-%d: truncated header", op, ssid)
	}
	hdr = hdr[:n]
	if !bytes.HasPrefix(hdr, dsegMagic) {
		return 0, false, fmt.Errorf("persist: delta segment %s/ss-%d: bad magic", op, ssid)
	}
	b, used := binary.Uvarint(hdr[len(dsegMagic):])
	if used <= 0 {
		return 0, false, fmt.Errorf("persist: delta segment %s/ss-%d: truncated base", op, ssid)
	}
	return int64(b), true, nil
}

// ChainLen reports how many delta segments sit between snapshot ssid and
// its full base for one operator: 0 means ssid holds a full segment. The
// writer's compaction policy keys off it.
func (s *Store) ChainLen(ssid int64, op string) (int, error) {
	hops := 0
	cur := ssid
	for {
		base, isDelta, err := s.readDeltaBase(cur, op)
		if err != nil {
			return 0, err
		}
		if !isDelta {
			return hops, nil
		}
		hops++
		if hops > maxChainHops {
			return 0, fmt.Errorf("persist: delta chain of %s at ss-%d exceeds %d hops", op, ssid, maxChainHops)
		}
		cur = base
	}
}

// ReadState resolves one operator's complete state at snapshot ssid,
// replaying the delta chain over its full base when ssid was persisted
// incrementally. Entries come back sorted by key for deterministic
// restores. A full segment at ssid reads directly.
func (s *Store) ReadState(ssid int64, op string) ([]Entry, error) {
	// Walk newest→oldest collecting deltas until a full segment roots the
	// chain.
	var deltas [][]DeltaEntry
	cur := ssid
	for {
		base, isDelta, err := s.readDeltaBase(cur, op)
		if err != nil {
			return nil, err
		}
		if !isDelta {
			break
		}
		_, entries, err := s.ReadDeltaSegment(cur, op)
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, entries)
		if len(deltas) > maxChainHops {
			return nil, fmt.Errorf("persist: delta chain of %s at ss-%d exceeds %d hops", op, ssid, maxChainHops)
		}
		cur = base
	}
	full, err := s.ReadSegment(cur, op)
	if err != nil {
		return nil, err
	}
	if len(deltas) == 0 {
		return full, nil
	}
	state := make(map[string]Entry, len(full))
	for _, e := range full {
		state[partition.KeyString(e.Key)] = e
	}
	// Apply deltas oldest→newest (they were collected newest-first).
	for i := len(deltas) - 1; i >= 0; i-- {
		for _, d := range deltas[i] {
			ks := partition.KeyString(d.Key)
			if d.Tombstone {
				delete(state, ks)
			} else {
				state[ks] = Entry{Key: d.Key, Value: d.Value}
			}
		}
	}
	keys := make([]string, 0, len(state))
	for ks := range state {
		keys = append(keys, ks)
	}
	sort.Strings(keys)
	out := make([]Entry, 0, len(keys))
	for _, ks := range keys {
		out = append(out, state[ks])
	}
	return out, nil
}

// Stats is the store's cumulative write accounting, for the obs plane
// and the ckpt-scale experiment: how many segments of each kind landed
// and how many bytes they cost.
type Stats struct {
	FullSegments  int64
	DeltaSegments int64
	BytesWritten  int64
}

// Stats returns the store's cumulative write accounting.
func (s *Store) Stats() Stats {
	return Stats{
		FullSegments:  s.fullSegs.Load(),
		DeltaSegments: s.deltaSegs.Load(),
		BytesWritten:  s.bytesWritten.Load(),
	}
}
