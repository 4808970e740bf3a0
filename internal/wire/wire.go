// Package wire is the compact self-describing binary codec of the state
// plane: the representation in which partition keys, row values and
// versioned snapshot state cross the wire and land on disk. It replaces
// encoding/gob on the paths the paper's overhead story lives on — blob
// snapshots (core.prepareBlob/restoreBlob) and stable-storage segments
// (internal/persist) — and provides the byte accounting the transport
// layer charges per message.
//
// Design constraints, in order:
//
//  1. Zero-alloc encode for the scalar types the workloads actually key
//     and store by (ints, strings, floats, bools): AppendValue writes
//     into a caller-provided buffer and allocates nothing itself.
//  2. Self-describing: every value carries a one-byte tag, so a decoder
//     needs no schema and unknown data fails loudly instead of silently
//     misparsing.
//  3. Typed state rows: a flat struct (every field a bool, integer,
//     float, string, []byte or time.Time) travels as a type reference
//     plus packed columns, from a schema derived once per Go type — zero
//     allocations to encode, one for the struct to decode (see
//     struct.go).
//  4. Total compatibility: any other value (the complex objects the
//     paper stores in the IMDG) falls back to an embedded gob blob — the
//     same registrations workloads already perform keep working.
//
// Format, one value:
//
//	value   := tag payload | typedef value
//	tag     := one of the T* constants below
//	varint  := unsigned LEB128; signed integers are zigzag-encoded
//	string  := varint(len) bytes
//	map     := varint(n) n*(string value)   keys sorted (canonical form)
//	slice   := varint(n) n*value
//	gob     := varint(len) gob-stream bytes
//	struct, typedef: see struct.go
//
// Canonical form matters: encode(decode(b)) == b for every b the decoder
// accepts that holds neither a gob fallback nor a type definition — the
// FuzzWire round-trip invariant.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
)

// Value tags. The numeric values are the on-disk/on-wire format: never
// reorder or reuse them, only append.
const (
	TNil     byte = 0x00
	TFalse   byte = 0x01
	TTrue    byte = 0x02
	TInt     byte = 0x03 // Go int, zigzag varint
	TInt32   byte = 0x04
	TInt64   byte = 0x05
	TUint64  byte = 0x06 // plain varint
	TFloat64 byte = 0x07 // 8 bytes little-endian IEEE 754 bits
	TString  byte = 0x08
	TBytes   byte = 0x09 // []byte
	TMap     byte = 0x0a // map[string]any, keys sorted
	TSlice   byte = 0x0b // []any
	TGob     byte = 0x0c // fallback: embedded gob stream of an interface value
	TStruct  byte = 0x0d // flat struct: type reference + packed columns
	TTypeDef byte = 0x0e // prefix: a struct type's definition, then a value
)

func init() {
	// A gob-fallback value may hold a map in an interface-typed field; the
	// scalar types gob registers itself.
	gob.Register(map[string]any{})
}

// zigzag maps signed to unsigned so small negatives stay small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUvarint appends the LEB128 encoding of u.
func AppendUvarint(buf []byte, u uint64) []byte {
	return binary.AppendUvarint(buf, u)
}

// AppendValue appends the wire encoding of v. Scalars (nil, bool, the int
// family, float64, string, []byte) and flat structs encode without
// allocating; maps, slices and gob-fallback values may allocate. The error
// is non-nil only for a type gob does not know (unregistered).
//
// A bare frame carries no type definition: a struct row decodes only in a
// process that has encoded the type or loaded its definition. Streams
// that outlive the process (segments, blobs) encode through a Stream.
func AppendValue(buf []byte, v any) ([]byte, error) {
	return appendValue(buf, v, nil)
}

func appendValue(buf []byte, v any, st *Stream) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, TNil), nil
	case bool:
		if x {
			return append(buf, TTrue), nil
		}
		return append(buf, TFalse), nil
	case int:
		buf = append(buf, TInt)
		return binary.AppendUvarint(buf, zigzag(int64(x))), nil
	case int32:
		buf = append(buf, TInt32)
		return binary.AppendUvarint(buf, zigzag(int64(x))), nil
	case int64:
		buf = append(buf, TInt64)
		return binary.AppendUvarint(buf, zigzag(x)), nil
	case uint64:
		buf = append(buf, TUint64)
		return binary.AppendUvarint(buf, x), nil
	case float64:
		buf = append(buf, TFloat64)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x)), nil
	case string:
		buf = append(buf, TString)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case []byte:
		buf = append(buf, TBytes)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case map[string]any:
		buf = append(buf, TMap)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var err error
		for _, k := range keys {
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			if buf, err = appendValue(buf, x[k], st); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case []any:
		buf = append(buf, TSlice)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		var err error
		for _, e := range x {
			if buf, err = appendValue(buf, e, st); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		if s := structSchema(v); s != nil {
			return appendStruct(buf, s, v, st)
		}
		// Fallback: anything else travels as an embedded gob stream.
		// The value is wrapped in an interface slot so gob records the
		// concrete type name — the same registration contract workloads
		// already fulfil for blob snapshots.
		// Copy into a branch-local before taking the address: &v on the
		// parameter itself would move it to the heap and cost the scalar
		// fast paths an allocation per call.
		vv := v
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&vv); err != nil {
			return nil, fmt.Errorf("wire: encoding %T: %w", v, err)
		}
		buf = append(buf, TGob)
		buf = binary.AppendUvarint(buf, uint64(gb.Len()))
		return append(buf, gb.Bytes()...), nil
	}
}

// Size returns the exact encoded size of a fast-path scalar and a cheap
// estimate for everything else. It allocates nothing — the transport
// layer uses it for per-message byte accounting on hot paths where
// actually encoding would cost more than the message.
func Size(v any) int {
	switch x := v.(type) {
	case nil, bool:
		return 1
	case int:
		return 1 + uvarintLen(zigzag(int64(x)))
	case int32:
		return 1 + uvarintLen(zigzag(int64(x)))
	case int64:
		return 1 + uvarintLen(zigzag(x))
	case uint64:
		return 1 + uvarintLen(x)
	case float64:
		return 9
	case string:
		return 1 + uvarintLen(uint64(len(x))) + len(x)
	case []byte:
		return 1 + uvarintLen(uint64(len(x))) + len(x)
	case map[string]any:
		n := 1 + uvarintLen(uint64(len(x)))
		for k, e := range x {
			n += uvarintLen(uint64(len(k))) + len(k) + Size(e)
		}
		return n
	case []any:
		n := 1 + uvarintLen(uint64(len(x)))
		for _, e := range x {
			n += Size(e)
		}
		return n
	default:
		// Structs encode to tens of bytes typically; the estimate only
		// feeds accounting, never framing.
		return 32
	}
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// DecodeValue decodes one value from the front of buf and returns it with
// the remaining bytes. Inputs that are not a valid encoding error out;
// the decoder never panics (FuzzWire's contract).
func DecodeValue(buf []byte) (v any, rest []byte, err error) {
	for len(buf) > 0 && buf[0] == TTypeDef {
		if buf, err = loadTypeDef(buf[1:]); err != nil {
			return nil, nil, err
		}
	}
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("wire: empty buffer")
	}
	tag, body := buf[0], buf[1:]
	switch tag {
	case TNil:
		return nil, body, nil
	case TFalse:
		return false, body, nil
	case TTrue:
		return true, body, nil
	case TInt, TInt32, TInt64:
		u, n, err := decodeUvarint(body)
		if err != nil {
			return nil, nil, err
		}
		s := unzigzag(u)
		switch tag {
		case TInt:
			if int64(int(s)) != s {
				return nil, nil, fmt.Errorf("wire: int overflow")
			}
			return int(s), body[n:], nil
		case TInt32:
			if int64(int32(s)) != s {
				return nil, nil, fmt.Errorf("wire: int32 overflow")
			}
			return int32(s), body[n:], nil
		default:
			return s, body[n:], nil
		}
	case TUint64:
		u, n, err := decodeUvarint(body)
		if err != nil {
			return nil, nil, err
		}
		return u, body[n:], nil
	case TFloat64:
		if len(body) < 8 {
			return nil, nil, fmt.Errorf("wire: truncated float64")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(body)), body[8:], nil
	case TString:
		b, rest, err := decodeLenBytes(body)
		if err != nil {
			return nil, nil, err
		}
		return string(b), rest, nil
	case TBytes:
		b, rest, err := decodeLenBytes(body)
		if err != nil {
			return nil, nil, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out, rest, nil
	case TMap:
		u, n, err := decodeUvarint(body)
		if err != nil {
			return nil, nil, err
		}
		body = body[n:]
		if u > uint64(len(body)) {
			return nil, nil, fmt.Errorf("wire: map length %d exceeds input", u)
		}
		m := make(map[string]any, u)
		prev := ""
		for i := uint64(0); i < u; i++ {
			kb, rest, err := decodeLenBytes(body)
			if err != nil {
				return nil, nil, err
			}
			k := string(kb)
			// Canonical form: keys strictly ascending. Rejecting unsorted
			// or duplicate keys keeps encode(decode(b)) == b.
			if i > 0 && k <= prev {
				return nil, nil, fmt.Errorf("wire: map keys not strictly ascending")
			}
			prev = k
			var val any
			val, body, err = DecodeValue(rest)
			if err != nil {
				return nil, nil, err
			}
			m[k] = val
		}
		return m, body, nil
	case TSlice:
		u, n, err := decodeUvarint(body)
		if err != nil {
			return nil, nil, err
		}
		body = body[n:]
		if u > uint64(len(body)) {
			return nil, nil, fmt.Errorf("wire: slice length %d exceeds input", u)
		}
		s := make([]any, 0, u)
		for i := uint64(0); i < u; i++ {
			var val any
			val, body, err = DecodeValue(body)
			if err != nil {
				return nil, nil, err
			}
			s = append(s, val)
		}
		return s, body, nil
	case TGob:
		b, rest, err := decodeLenBytes(body)
		if err != nil {
			return nil, nil, err
		}
		var out any
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&out); err != nil {
			return nil, nil, fmt.Errorf("wire: gob fallback: %w", err)
		}
		return out, rest, nil
	case TStruct:
		return decodeStruct(body)
	default:
		return nil, nil, fmt.Errorf("wire: unknown tag 0x%02x", tag)
	}
}

func decodeUvarint(b []byte) (uint64, int, error) {
	u, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("wire: bad varint")
	}
	// Reject non-canonical encodings (e.g. 0x80 0x00 for zero): canonical
	// form is what makes encode(decode(b)) == b.
	if n > 1 && b[n-1] == 0 {
		return 0, 0, fmt.Errorf("wire: non-canonical varint")
	}
	return u, n, nil
}

func decodeLenBytes(b []byte) (data, rest []byte, err error) {
	u, n, err := decodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	b = b[n:]
	if u > uint64(len(b)) {
		return nil, nil, fmt.Errorf("wire: length %d exceeds input", u)
	}
	return b[:u], b[u:], nil
}

// AppendVersion appends one version of a key's snapshot state: the
// snapshot id, the tombstone flag, and the value. This is the on-wire
// shape of one core.Versioned link; a chain is a count followed by its
// versions ascending by ssid.
func AppendVersion(buf []byte, ssid int64, tombstone bool, value any) ([]byte, error) {
	buf = binary.AppendUvarint(buf, zigzag(ssid))
	if tombstone {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return AppendValue(buf, value)
}

// DecodeVersion decodes one version appended by AppendVersion.
func DecodeVersion(buf []byte) (ssid int64, tombstone bool, value any, rest []byte, err error) {
	u, n, err := decodeUvarint(buf)
	if err != nil {
		return 0, false, nil, nil, err
	}
	buf = buf[n:]
	if len(buf) == 0 {
		return 0, false, nil, nil, fmt.Errorf("wire: truncated version")
	}
	switch buf[0] {
	case 0:
	case 1:
		tombstone = true
	default:
		return 0, false, nil, nil, fmt.Errorf("wire: bad tombstone byte 0x%02x", buf[0])
	}
	value, rest, err = DecodeValue(buf[1:])
	if err != nil {
		return 0, false, nil, nil, err
	}
	return unzigzag(u), tombstone, value, rest, nil
}
