// Package persist is the stable-storage substrate for checkpoints: the
// paper assumes operator state snapshots are kept on storage that
// survives process failures (§IV: "the state of operators is typically
// stored in stable storage in order to survive node failures"; §VI.B
// discusses HDFS/S3 for Flink). This package implements that layer as a
// directory of wire-encoded snapshot segments with an atomically updated
// manifest:
//
//	<dir>/
//	  MANIFEST              committed snapshot ids (atomic rename)
//	  ss-<ssid>/<op>.seg    full segment: the operator's complete state
//	  ss-<ssid>/<op>.dseg   delta segment: changes since a base snapshot
//	                        (see delta.go; ReadState replays the chain)
//
// Segments use the compact binary codec from internal/wire. A segment is
// its magic, a header (the entry count; a delta's base id before it) and
// the entries as wire values. Each segment is one wire.Stream: the
// definition of every struct type among its rows travels in-band, once,
// ahead of the first row of that type, so a process that has never seen
// the type restores the segment with nothing but its gob.Register call.
//
// Writes happen segment by segment; a snapshot id only becomes visible
// once the manifest rename lands, so readers never observe half-written
// checkpoints — the same commit discipline as the in-memory registry.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"squery/internal/wire"
)

// segMagic prefixes wire-encoded segment files.
var segMagic = []byte("SQWS\x01")

// Entry is one persisted key-value pair of an operator's state.
type Entry struct {
	Key   any
	Value any
}

// Store is a directory-backed snapshot store.
type Store struct {
	dir string

	// Cumulative write accounting (see Stats). Atomic: asynchronous
	// checkpoint drains may write segments while the coordinator reads.
	fullSegs     atomic.Int64
	deltaSegs    atomic.Int64
	bytesWritten atomic.Int64

	// Encoded bytes per entry of the last segment written under each file
	// name (<op>.seg, <op>.dseg): the next one's buffer is sized from it,
	// so encoding a segment is one allocation instead of a chain of
	// append growths.
	sizeMu     sync.Mutex
	entryBytes map[string]int
}

// segmentBuf returns an empty buffer for n entries of segment file, sized
// from the bytes per entry its predecessor came to (plus an eighth), or a
// guess for the first.
func (s *Store) segmentBuf(file string, n int) []byte {
	s.sizeMu.Lock()
	per := s.entryBytes[file]
	s.sizeMu.Unlock()
	if per == 0 {
		per = 64
	}
	return make([]byte, 0, 256+n*(per+per/8+1))
}

// noteSegment records a written segment of n entries in the store's
// accounting.
func (s *Store) noteSegment(segs *atomic.Int64, file string, size, n int) {
	segs.Add(1)
	s.bytesWritten.Add(int64(size))
	if n > 0 {
		s.sizeMu.Lock()
		s.entryBytes[file] = size / n
		s.sizeMu.Unlock()
	}
}

// Open creates (if needed) and opens a snapshot store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating %s: %w", dir, err)
	}
	return &Store{dir: dir, entryBytes: make(map[string]int)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) snapshotDir(ssid int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("ss-%d", ssid))
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "MANIFEST") }

// WriteSegment persists one operator's state for one snapshot. Segments
// of the same ssid may be written by concurrent callers for different
// operators; the snapshot becomes durable only at Commit.
func (s *Store) WriteSegment(ssid int64, op string, entries []Entry) error {
	file := op + ".seg"
	buf, err := AppendImage(s.segmentBuf(file, len(entries)), len(entries), func(emit func(key, value any) bool) {
		for _, e := range entries {
			if !emit(e.Key, e.Value) {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("persist: encoding segment %s/ss-%d: %w", op, ssid, err)
	}
	if err := s.publish(ssid, file, buf); err != nil {
		return err
	}
	s.noteSegment(&s.fullSegs, file, len(buf), len(entries))
	return nil
}

// AppendImage encodes a whole-state image into buf: segMagic, the entry
// count n, then each entry's key and value, one wire.Stream over them all.
// It is the body of a full segment and of the Jet baseline's blob. each
// hands emit the entries, stopping once emit returns false (an entry
// failed to encode); it must hand exactly n.
func AppendImage(buf []byte, n int, each func(emit func(key, value any) bool)) ([]byte, error) {
	buf = append(buf, segMagic...)
	buf = wire.AppendUvarint(buf, uint64(n))
	var st wire.Stream
	var err error
	each(func(key, value any) bool {
		if buf, err = st.AppendValue(buf, key); err == nil {
			buf, err = st.AppendValue(buf, value)
		}
		return err == nil
	})
	return buf, err
}

// DecodeImage decodes an image AppendImage wrote. Its errors name only
// what was wrong; callers add which image it was.
func DecodeImage(raw []byte) ([]Entry, error) {
	if !bytes.HasPrefix(raw, segMagic) {
		return nil, errors.New("bad magic")
	}
	raw = raw[len(segMagic):]
	n, used := binary.Uvarint(raw)
	if used <= 0 {
		return nil, errors.New("truncated entry count")
	}
	raw = raw[used:]
	entries := make([]Entry, 0, min(n, uint64(len(raw))))
	for i := uint64(0); i < n; i++ {
		var e Entry
		var err error
		if e.Key, raw, err = wire.DecodeValue(raw); err != nil {
			return nil, err
		}
		if e.Value, raw, err = wire.DecodeValue(raw); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// publish writes one segment file under its snapshot directory with the
// crash discipline every segment kind shares: the bytes land under a
// temporary name, are fsynced, and only then renamed into place — a
// crash mid-write leaves a .tmp that no read path ever looks at.
func (s *Store) publish(ssid int64, file string, buf []byte) error {
	dir := s.snapshotDir(ssid)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: creating %s: %w", dir, err)
	}
	tmp := filepath.Join(dir, file+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: creating segment: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: writing segment %s/ss-%d: %w", file, ssid, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: syncing segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: closing segment: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, file)); err != nil {
		return fmt.Errorf("persist: publishing segment: %w", err)
	}
	return nil
}

// ReadSegment loads one operator's persisted full segment at ssid.
func (s *Store) ReadSegment(ssid int64, op string) ([]Entry, error) {
	raw, err := os.ReadFile(filepath.Join(s.snapshotDir(ssid), op+".seg"))
	if err != nil {
		return nil, fmt.Errorf("persist: opening segment %s/ss-%d: %w", op, ssid, err)
	}
	entries, err := DecodeImage(raw)
	if err != nil {
		return nil, fmt.Errorf("persist: decoding segment %s/ss-%d: %w", op, ssid, err)
	}
	return entries, nil
}

// Operators lists the operators with a segment in snapshot ssid, full or
// delta.
func (s *Store) Operators(ssid int64) ([]string, error) {
	des, err := os.ReadDir(s.snapshotDir(ssid))
	if err != nil {
		return nil, fmt.Errorf("persist: listing snapshot %d: %w", ssid, err)
	}
	seen := make(map[string]bool)
	var out []string
	for _, de := range des {
		name, ok := strings.CutSuffix(de.Name(), ".seg")
		if !ok {
			name, ok = strings.CutSuffix(de.Name(), ".dseg")
		}
		if ok && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Commit durably publishes ssid as committed by rewriting the manifest
// atomically. Ids must be committed in increasing order.
func (s *Store) Commit(ssid int64) error {
	ids, err := s.Committed()
	if err != nil {
		return err
	}
	if n := len(ids); n > 0 && ids[n-1] >= ssid {
		return fmt.Errorf("persist: commit of %d after %d", ssid, ids[n-1])
	}
	ids = append(ids, ssid)
	return s.writeManifest(ids)
}

func (s *Store) writeManifest(ids []int64) error {
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d\n", id)
	}
	tmp := s.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("persist: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, s.manifestPath()); err != nil {
		return fmt.Errorf("persist: publishing manifest: %w", err)
	}
	return nil
}

// Committed returns the durably committed snapshot ids, ascending. A
// missing manifest means no snapshot has committed.
func (s *Store) Committed() ([]int64, error) {
	raw, err := os.ReadFile(s.manifestPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading manifest: %w", err)
	}
	var out []int64
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		id, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("persist: corrupt manifest line %q", line)
		}
		out = append(out, id)
	}
	return out, nil
}

// Latest returns the most recent committed id, or 0 if none.
func (s *Store) Latest() (int64, error) {
	ids, err := s.Committed()
	if err != nil || len(ids) == 0 {
		return 0, err
	}
	return ids[len(ids)-1], nil
}

// Prune removes the given snapshot ids from the manifest and garbage-
// collects snapshot directories no longer reachable: a directory
// survives while it is committed *or* while any committed id's delta
// chain passes through it (an evicted id can still be some chain's
// base). Pruning an id that is not committed is a no-op.
func (s *Store) Prune(ssids []int64) error {
	if len(ssids) == 0 {
		return nil
	}
	drop := map[int64]bool{}
	for _, id := range ssids {
		drop[id] = true
	}
	ids, err := s.Committed()
	if err != nil {
		return err
	}
	kept := ids[:0]
	for _, id := range ids {
		if !drop[id] {
			kept = append(kept, id)
		}
	}
	if err := s.writeManifest(kept); err != nil {
		return err
	}
	// Directory removal happens after the manifest no longer references
	// the ids, so a crash between the two steps only leaks files.
	reachable, err := s.reachable(kept)
	if err != nil {
		return err
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("persist: listing store: %w", err)
	}
	for _, de := range des {
		rest, ok := strings.CutPrefix(de.Name(), "ss-")
		if !ok {
			continue
		}
		id, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || reachable[id] {
			continue
		}
		if err := os.RemoveAll(s.snapshotDir(id)); err != nil {
			return fmt.Errorf("persist: removing snapshot %d: %w", id, err)
		}
	}
	return nil
}

// reachable returns every snapshot id referenced by the given committed
// ids: the ids themselves plus all bases their delta chains walk
// through.
func (s *Store) reachable(committed []int64) (map[int64]bool, error) {
	keep := make(map[int64]bool, len(committed))
	for _, id := range committed {
		keep[id] = true
		ops, err := s.Operators(id)
		if err != nil {
			return nil, err
		}
		for _, op := range ops {
			cur := id
			for hops := 0; ; hops++ {
				base, isDelta, err := s.readDeltaBase(cur, op)
				if err != nil {
					return nil, err
				}
				if !isDelta {
					break
				}
				if hops > maxChainHops {
					return nil, fmt.Errorf("persist: delta chain of %s at ss-%d exceeds %d hops", op, id, maxChainHops)
				}
				keep[base] = true
				cur = base
			}
		}
	}
	return keep, nil
}
