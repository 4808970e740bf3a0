package sql

import (
	"encoding/binary"
	"fmt"
)

// joinKey is a comparable, allocation-free key for join hash tables,
// DISTINCT sets and GROUP BY encoding. It replaces the fmt.Sprintf-built
// string key the join path used to allocate per probe, while preserving
// its equality classes: the int family coalesces to one representation
// (as compare() does), floats key by bit pattern and do NOT coalesce
// with ints (the old "i5" vs "f5" behaved the same way — pruning and
// hashing stay conservative where SQL equality coerces), and everything
// unrecognised falls back to the old %T:%v string form.
type joinKey struct {
	kind byte // 'i' int, 'f' float, 's' string, 'b' bool, 't' time, 'n' nil, 'o' other
	num  int64
	str  string
}

// makeJoinKey builds the key for one join/grouping value.
func makeJoinKey(v any) joinKey { return fromAny(v).joinKey() }

// joinKey builds the key of a typed value.
func (d datum) joinKey() joinKey {
	switch d.k {
	case dNull:
		return joinKey{kind: 'n'}
	case dInt:
		return joinKey{kind: 'i', num: d.n}
	case dFloat:
		return joinKey{kind: 'f', num: d.n}
	case dString:
		return joinKey{kind: 's', str: d.s}
	case dBool:
		return joinKey{kind: 'b', num: d.n}
	case dTime:
		return joinKey{kind: 't', num: d.time().UnixNano()}
	}
	return joinKey{kind: 'o', str: fmt.Sprintf("%T:%v", d.a, d.a)}
}

// appendGroupKey appends a self-delimiting binary encoding of v to dst —
// the GROUP BY composite-key builder. Strings are length-prefixed so a
// composite key can never collide across boundaries, unlike the old
// separator-joined string form.
func appendGroupKey(dst []byte, v any) []byte { return fromAny(v).appendGroupKey(dst) }

func (d datum) appendGroupKey(dst []byte) []byte {
	k := d.joinKey()
	dst = append(dst, k.kind)
	switch k.kind {
	case 's', 'o':
		dst = binary.AppendUvarint(dst, uint64(len(k.str)))
		dst = append(dst, k.str...)
	case 'n':
	default:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(k.num))
	}
	return dst
}
