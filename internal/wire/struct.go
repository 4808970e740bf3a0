package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// The struct codec: state rows — the flat structs workloads keep per key —
// travel as a type reference plus packed columns instead of a gob stream.
//
//	struct  := TStruct ref columns
//	ref     := 8 bytes little-endian: FNV-64a of the definition's identity
//	           (type name, field names, column kinds)
//	columns := one column per struct field, in declaration order
//	column  := bool    1 byte, 0 or 1
//	           intN    zigzag varint          uintN   varint
//	           float32 4 bytes LE IEEE bits   float64 8 bytes LE IEEE bits
//	           string  varint(len) bytes      []byte  varint(len) bytes
//	           time    zigzag varint(unix seconds) varint(nanoseconds)
//	                   varint(zone): 0 = UTC, else 1 + zigzag(offset seconds)
//	typedef := TTypeDef identity bytes(gob zero value) value
//	identity:= string(name) varint(n) n*(string(field name) kind)
//
// The reference is a fingerprint of the schema (the idea of Avro's
// single-object encoding), so one row encoding serves every path: a bare
// AppendValue frame, a segment row and a blob row are the same bytes, and
// a row written against a since-changed struct resolves to nothing and
// fails loudly instead of misparsing. A definition travels in-band, once
// per stream (see Stream), as a prefix of the first value that needs it.
// It carries a gob-encoded zero value, which is how a process that has
// never seen the type finds the Go type to build: through the gob.Register
// call workloads already make.

// Column kinds of a type definition. On-disk format: append only.
const (
	kBool byte = iota + 1
	kInt
	kInt8
	kInt16
	kInt32
	kInt64
	kUint
	kUint8
	kUint16
	kUint32
	kUint64
	kFloat32
	kFloat64
	kString
	kBytes
	kTime
)

var kindNames = [...]string{
	kBool: "bool", kInt: "int", kInt8: "int8", kInt16: "int16", kInt32: "int32", kInt64: "int64",
	kUint: "uint", kUint8: "uint8", kUint16: "uint16", kUint32: "uint32", kUint64: "uint64",
	kFloat32: "float32", kFloat64: "float64", kString: "string", kBytes: "[]byte", kTime: "time.Time",
}

var timeType = reflect.TypeOf(time.Time{})

// columnKind maps a field type to its column kind; 0 means the codec does
// not pack it and the whole struct takes the gob fallback.
func columnKind(t reflect.Type) byte {
	switch t.Kind() {
	case reflect.Bool:
		return kBool
	case reflect.Int:
		return kInt
	case reflect.Int8:
		return kInt8
	case reflect.Int16:
		return kInt16
	case reflect.Int32:
		return kInt32
	case reflect.Int64:
		return kInt64
	case reflect.Uint:
		return kUint
	case reflect.Uint8:
		return kUint8
	case reflect.Uint16:
		return kUint16
	case reflect.Uint32:
		return kUint32
	case reflect.Uint64:
		return kUint64
	case reflect.Float32:
		return kFloat32
	case reflect.Float64:
		return kFloat64
	case reflect.String:
		return kString
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return kBytes
		}
	case reflect.Struct:
		if t == timeType {
			return kTime
		}
	}
	return 0
}

// field is one packed column of a flat struct.
type field struct {
	name   string // Go field name
	kind   byte
	offset uintptr
	// plain: the field's type is the predeclared type of its kind (string,
	// not a named string type), so Value can box it without reflection.
	plain bool
}

// Schema is the per-type layout of a state struct, derived once by
// reflection: the SQL column view kv.Row projects from, and — for flat
// structs — the packed-column codec.
type Schema struct {
	typ   reflect.Type
	cols  []string       // SQL column names, sorted
	index map[string]int // column name -> struct field index

	// Codec half; fields is nil unless the struct is flat: named, at
	// least one field, every field exported and of a supported kind.
	fields   []field
	name     string         // pkgpath.Name, the name gob.Register files the type under
	identity []byte         // encoded name + fields: what ref fingerprints
	ref      uint64         // fingerprint of identity
	rtype    unsafe.Pointer // the type word of an interface holding typ

	// def is the full definition (identity + gob zero value), built on
	// first encode: that is where an unregistered type is refused.
	def atomic.Pointer[[]byte]
}

// The codec's type table. Both maps are copy-on-write so the per-row
// lookups are a plain map read; writes (under tableMu) happen once per
// type per process.
var (
	tableMu sync.Mutex
	byType  atomic.Pointer[map[reflect.Type]*Schema]
	byRef   atomic.Pointer[map[uint64]*Schema]
)

// lookup reads a copy-on-write table.
func lookup[K comparable](table *atomic.Pointer[map[K]*Schema], k K) *Schema {
	if m := table.Load(); m != nil {
		return (*m)[k]
	}
	return nil
}

// publish adds k → s to a copy-on-write table. Caller holds tableMu.
func publish[K comparable](table *atomic.Pointer[map[K]*Schema], k K, s *Schema) {
	next := map[K]*Schema{k: s}
	if m := table.Load(); m != nil {
		for mk, ms := range *m {
			if mk != k {
				next[mk] = ms
			}
		}
	}
	table.Store(&next)
}

// SchemaOf returns the cached schema of struct type t.
func SchemaOf(t reflect.Type) *Schema {
	if s := lookup(&byType, t); s != nil {
		return s
	}
	s := deriveSchema(t)
	tableMu.Lock()
	defer tableMu.Unlock()
	if cur := lookup(&byType, t); cur != nil {
		return cur
	}
	publish(&byType, t, s)
	return s
}

func deriveSchema(t reflect.Type) *Schema {
	s := &Schema{typ: t, index: make(map[string]int)}
	flat := t.Name() != "" && t.NumField() > 0
	fields := make([]field, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			flat = false
			continue
		}
		col := f.Tag.Get("col")
		if col == "" {
			// Lower-case first rune to match SQL convention
			// (OrderState -> orderState), as in the paper's queries.
			col = strings.ToLower(f.Name[:1]) + f.Name[1:]
		}
		s.index[col] = i
		s.cols = append(s.cols, col)
		k := columnKind(f.Type)
		if k == 0 {
			flat = false
		}
		fields = append(fields, field{name: f.Name, kind: k, offset: f.Offset, plain: f.Type.PkgPath() == "" || f.Type == timeType})
	}
	sort.Strings(s.cols)
	if !flat {
		return s
	}
	s.fields = fields
	s.name = t.PkgPath() + "." + t.Name()
	s.identity = appendString(nil, s.name)
	s.identity = binary.AppendUvarint(s.identity, uint64(len(fields)))
	for _, f := range fields {
		s.identity = appendString(s.identity, f.name)
		s.identity = append(s.identity, f.kind)
	}
	s.ref = fingerprint(s.identity)
	zero := reflect.Zero(t).Interface()
	s.rtype = (*eface)(unsafe.Pointer(&zero)).typ
	return s
}

// Columns returns the SQL column names, sorted. The slice is shared by
// every row of the type and clipped to its length, so a caller's append
// copies instead of writing into the schema's backing array.
func (s *Schema) Columns() []string { return s.cols[:len(s.cols):len(s.cols)] }

// FieldIndex returns the struct field index behind a SQL column name.
func (s *Schema) FieldIndex(col string) (int, bool) {
	i, ok := s.index[col]
	return i, ok
}

// FlatSchemaOf returns the schema of v's dynamic type when v is a flat
// struct — the types the column readers below serve — and nil otherwise.
func FlatSchemaOf(v any) *Schema {
	if v == nil {
		return nil
	}
	return structSchema(v)
}

// ColumnType returns the Go type of struct field i, as FieldIndex numbers
// them.
func (s *Schema) ColumnType(i int) reflect.Type { return s.typ.Field(i).Type }

// Ref addresses one struct value of a flat schema's type for the column
// readers. It keeps the value reachable for as long as it is held.
type Ref struct{ p unsafe.Pointer }

// Ref returns the reader handle of v; ok is false when v is not a value of
// the schema's struct type (or the schema is not flat), and the caller
// reads that row by name instead. The check is one pointer comparison.
func (s *Schema) Ref(v any) (r Ref, ok bool) {
	e := (*eface)(unsafe.Pointer(&v))
	if s.fields == nil || e.typ != s.rtype {
		return Ref{}, false
	}
	return Ref{p: e.data}, true
}

// The column readers read field i of the struct r addresses, through the
// offsets the codec encodes from. Each is defined for the column kinds its
// name covers — Int for every int and uint width, Float for both float
// widths — and the caller picks the reader from ColumnType; a reader
// called on another kind returns the zero value.

// Int reads an integer column, widened to int64 (a uint64 keeps its bits).
func (s *Schema) Int(r Ref, i int) int64 {
	f := &s.fields[i]
	fp := unsafe.Add(r.p, f.offset)
	switch f.kind {
	case kInt:
		return int64(*(*int)(fp))
	case kInt8:
		return int64(*(*int8)(fp))
	case kInt16:
		return int64(*(*int16)(fp))
	case kInt32:
		return int64(*(*int32)(fp))
	case kInt64:
		return *(*int64)(fp)
	case kUint:
		return int64(*(*uint)(fp))
	case kUint8:
		return int64(*(*uint8)(fp))
	case kUint16:
		return int64(*(*uint16)(fp))
	case kUint32:
		return int64(*(*uint32)(fp))
	case kUint64:
		return int64(*(*uint64)(fp))
	}
	return 0
}

// Float reads a float32 or float64 column.
func (s *Schema) Float(r Ref, i int) float64 {
	f := &s.fields[i]
	fp := unsafe.Add(r.p, f.offset)
	switch f.kind {
	case kFloat32:
		return float64(*(*float32)(fp))
	case kFloat64:
		return *(*float64)(fp)
	}
	return 0
}

// Str reads a string column; the result shares the row's bytes.
func (s *Schema) Str(r Ref, i int) string {
	if f := &s.fields[i]; f.kind == kString {
		return *(*string)(unsafe.Add(r.p, f.offset))
	}
	return ""
}

// Bool reads a bool column.
func (s *Schema) Bool(r Ref, i int) bool {
	if f := &s.fields[i]; f.kind == kBool {
		return *(*uint8)(unsafe.Add(r.p, f.offset))&1 == 1
	}
	return false
}

// Time reads a time.Time column in place: the result points into the row
// and must only be read.
func (s *Schema) Time(r Ref, i int) *time.Time {
	if f := &s.fields[i]; f.kind == kTime {
		return (*time.Time)(unsafe.Add(r.p, f.offset))
	}
	return new(time.Time)
}

// Value boxes column i with the field's own Go type — what reflection's
// Field(i).Interface() returns, named types included.
func (s *Schema) Value(r Ref, i int) any {
	if f := &s.fields[i]; f.plain {
		switch f.kind {
		case kInt:
			return int(s.Int(r, i))
		case kInt32:
			return int32(s.Int(r, i))
		case kInt64:
			return s.Int(r, i)
		case kUint64:
			return uint64(s.Int(r, i))
		case kFloat64:
			return s.Float(r, i)
		case kString:
			return s.Str(r, i)
		case kBool:
			return s.Bool(r, i)
		case kTime:
			return *s.Time(r, i)
		}
	}
	return reflect.NewAt(s.typ, r.p).Elem().Field(i).Interface()
}

func fingerprint(identity []byte) uint64 {
	h := fnv.New64a()
	h.Write(identity)
	return h.Sum64()
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// eface is the runtime layout of an interface value. A flat struct is
// never pointer-shaped (no supported column kind is), so the data word of
// an interface holding one always points at the struct.
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// structSchema returns the flat schema of v's dynamic type, or nil when v
// is not a flat struct and takes the gob fallback.
func structSchema(v any) *Schema {
	t := reflect.TypeOf(v)
	if t.Kind() != reflect.Struct {
		return nil
	}
	if s := SchemaOf(t); s.fields != nil {
		return s
	}
	return nil
}

// definition returns the schema's encoded definition, building it — and
// filing the schema under its reference — on first use. It fails for a
// type gob does not know: a row nobody could decode is refused at encode.
func (s *Schema) definition() ([]byte, error) {
	if d := s.def.Load(); d != nil {
		return *d, nil
	}
	tableMu.Lock()
	defer tableMu.Unlock()
	if d := s.def.Load(); d != nil {
		return *d, nil
	}
	zero := reflect.Zero(s.typ).Interface()
	var gb bytes.Buffer
	if err := gob.NewEncoder(&gb).Encode(&zero); err != nil {
		return nil, fmt.Errorf("wire: encoding %s: %w", s.typ, err)
	}
	if err := fileSchema(s); err != nil {
		return nil, err
	}
	def := append([]byte(nil), s.identity...)
	def = binary.AppendUvarint(def, uint64(gb.Len()))
	def = append(def, gb.Bytes()...)
	s.def.Store(&def)
	return def, nil
}

// fileSchema makes s resolvable by its reference. Caller holds tableMu.
func fileSchema(s *Schema) error {
	if cur := lookup(&byRef, s.ref); cur != nil && cur.typ != s.typ {
		return fmt.Errorf("wire: struct types %s and %s share reference %016x", cur.typ, s.typ, s.ref)
	}
	publish(&byRef, s.ref, s)
	return nil
}

// Stream tracks which struct definitions an encoded stream — a segment, a
// blob — already carries, so each travels once, ahead of the first row
// that needs it. The zero value is an empty stream. A stream with more
// struct types than it tracks repeats the overflow's definitions; loading
// one twice is harmless.
type Stream struct {
	defined [8]*Schema
	n       int
}

// AppendValue is the package-level AppendValue for a value that is part
// of this stream: a struct row is preceded by its type's definition the
// first time the type appears, wherever in the value it appears.
func (st *Stream) AppendValue(buf []byte, v any) ([]byte, error) {
	return appendValue(buf, v, st)
}

// define reports whether s still has to be defined in the stream, and
// records it as defined.
func (st *Stream) define(s *Schema) bool {
	for _, d := range st.defined[:st.n] {
		if d == s {
			return false
		}
	}
	if st.n < len(st.defined) {
		st.defined[st.n] = s
		st.n++
	}
	return true
}

// appendStruct appends one struct row, v being a value of s's type.
func appendStruct(buf []byte, s *Schema, v any, st *Stream) ([]byte, error) {
	def, err := s.definition()
	if err != nil {
		return nil, err
	}
	if st != nil && st.define(s) {
		buf = append(buf, TTypeDef)
		buf = append(buf, def...)
	}
	buf = append(buf, TStruct)
	buf = binary.LittleEndian.AppendUint64(buf, s.ref)
	p := (*eface)(unsafe.Pointer(&v)).data
	for i := range s.fields {
		f := &s.fields[i]
		fp := unsafe.Add(p, f.offset)
		switch f.kind {
		case kBool:
			// Through uint8, not bool: the byte is copied as stored.
			buf = append(buf, *(*uint8)(fp)&1)
		case kInt:
			buf = binary.AppendUvarint(buf, zigzag(int64(*(*int)(fp))))
		case kInt8:
			buf = binary.AppendUvarint(buf, zigzag(int64(*(*int8)(fp))))
		case kInt16:
			buf = binary.AppendUvarint(buf, zigzag(int64(*(*int16)(fp))))
		case kInt32:
			buf = binary.AppendUvarint(buf, zigzag(int64(*(*int32)(fp))))
		case kInt64:
			buf = binary.AppendUvarint(buf, zigzag(*(*int64)(fp)))
		case kUint:
			buf = binary.AppendUvarint(buf, uint64(*(*uint)(fp)))
		case kUint8:
			buf = binary.AppendUvarint(buf, uint64(*(*uint8)(fp)))
		case kUint16:
			buf = binary.AppendUvarint(buf, uint64(*(*uint16)(fp)))
		case kUint32:
			buf = binary.AppendUvarint(buf, uint64(*(*uint32)(fp)))
		case kUint64:
			buf = binary.AppendUvarint(buf, *(*uint64)(fp))
		case kFloat32:
			// Floats move as their bits, never through a float register, so
			// every NaN payload round-trips.
			buf = binary.LittleEndian.AppendUint32(buf, *(*uint32)(fp))
		case kFloat64:
			buf = binary.LittleEndian.AppendUint64(buf, *(*uint64)(fp))
		case kString:
			buf = appendString(buf, *(*string)(fp))
		case kBytes:
			b := *(*[]byte)(fp)
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			buf = append(buf, b...)
		case kTime:
			buf = appendTime(buf, *(*time.Time)(fp))
		}
	}
	return buf, nil
}

// appendTime encodes the instant and the zone offset; the monotonic
// reading and the zone's name do not travel (as with gob).
func appendTime(buf []byte, t time.Time) []byte {
	buf = binary.AppendUvarint(buf, zigzag(t.Unix()))
	buf = binary.AppendUvarint(buf, uint64(t.Nanosecond()))
	if t.Location() == time.UTC {
		return append(buf, 0)
	}
	_, off := t.Zone()
	return binary.AppendUvarint(buf, 1+zigzag(int64(off)))
}

func decodeTime(b []byte) (time.Time, []byte, error) {
	us, n, err := decodeUvarint(b)
	if err != nil {
		return time.Time{}, nil, err
	}
	b = b[n:]
	ns, n, err := decodeUvarint(b)
	if err != nil {
		return time.Time{}, nil, err
	}
	b = b[n:]
	if ns >= 1e9 {
		return time.Time{}, nil, fmt.Errorf("wire: time nanoseconds %d out of range", ns)
	}
	z, n, err := decodeUvarint(b)
	if err != nil {
		return time.Time{}, nil, err
	}
	b = b[n:]
	t := time.Unix(unzigzag(us), int64(ns))
	if z == 0 {
		return t.UTC(), b, nil
	}
	off := unzigzag(z - 1)
	if int64(int32(off)) != off {
		return time.Time{}, nil, fmt.Errorf("wire: time zone offset %d out of range", off)
	}
	// Like time.Time's own binary decoding: an offset matching the local
	// zone's at that instant restores Local, anything else a fixed zone.
	if _, local := t.Zone(); int64(local) != off {
		t = t.In(time.FixedZone("", int(off)))
	}
	return t, b, nil
}

// decodeStruct decodes the body of a TStruct frame (after the tag).
func decodeStruct(body []byte) (any, []byte, error) {
	if len(body) < 8 {
		return nil, nil, fmt.Errorf("wire: truncated struct reference")
	}
	s := lookup(&byRef, binary.LittleEndian.Uint64(body))
	if s == nil {
		return nil, nil, fmt.Errorf("wire: struct reference %x matches no type this process has encoded or loaded a definition for (a changed struct no longer matches rows written before the change)", body[:8])
	}
	body = body[8:]
	p := reflect.New(s.typ).UnsafePointer()
	for i := range s.fields {
		f := &s.fields[i]
		fp := unsafe.Add(p, f.offset)
		switch f.kind {
		case kBool:
			if len(body) == 0 || body[0] > 1 {
				return nil, nil, fmt.Errorf("wire: bad bool column %s.%s", s.name, f.name)
			}
			*(*bool)(fp) = body[0] == 1
			body = body[1:]
		case kInt, kInt8, kInt16, kInt32, kInt64:
			u, n, err := decodeUvarint(body)
			if err != nil {
				return nil, nil, err
			}
			body = body[n:]
			x := unzigzag(u)
			ok := true
			switch f.kind {
			case kInt:
				*(*int)(fp), ok = int(x), int64(int(x)) == x
			case kInt8:
				*(*int8)(fp), ok = int8(x), int64(int8(x)) == x
			case kInt16:
				*(*int16)(fp), ok = int16(x), int64(int16(x)) == x
			case kInt32:
				*(*int32)(fp), ok = int32(x), int64(int32(x)) == x
			default:
				*(*int64)(fp) = x
			}
			if !ok {
				return nil, nil, fmt.Errorf("wire: column %s.%s overflows %s", s.name, f.name, kindNames[f.kind])
			}
		case kUint, kUint8, kUint16, kUint32, kUint64:
			u, n, err := decodeUvarint(body)
			if err != nil {
				return nil, nil, err
			}
			body = body[n:]
			ok := true
			switch f.kind {
			case kUint:
				*(*uint)(fp), ok = uint(u), uint64(uint(u)) == u
			case kUint8:
				*(*uint8)(fp), ok = uint8(u), uint64(uint8(u)) == u
			case kUint16:
				*(*uint16)(fp), ok = uint16(u), uint64(uint16(u)) == u
			case kUint32:
				*(*uint32)(fp), ok = uint32(u), uint64(uint32(u)) == u
			default:
				*(*uint64)(fp) = u
			}
			if !ok {
				return nil, nil, fmt.Errorf("wire: column %s.%s overflows %s", s.name, f.name, kindNames[f.kind])
			}
		case kFloat32:
			if len(body) < 4 {
				return nil, nil, fmt.Errorf("wire: truncated float32 column %s.%s", s.name, f.name)
			}
			*(*uint32)(fp) = binary.LittleEndian.Uint32(body)
			body = body[4:]
		case kFloat64:
			if len(body) < 8 {
				return nil, nil, fmt.Errorf("wire: truncated float64 column %s.%s", s.name, f.name)
			}
			*(*uint64)(fp) = binary.LittleEndian.Uint64(body)
			body = body[8:]
		case kString:
			b, rest, err := decodeLenBytes(body)
			if err != nil {
				return nil, nil, err
			}
			*(*string)(fp) = string(b)
			body = rest
		case kBytes:
			b, rest, err := decodeLenBytes(body)
			if err != nil {
				return nil, nil, err
			}
			if len(b) > 0 {
				// Empty decodes to nil, as gob does: the two are one encoding.
				*(*[]byte)(fp) = append([]byte(nil), b...)
			}
			body = rest
		case kTime:
			t, rest, err := decodeTime(body)
			if err != nil {
				return nil, nil, err
			}
			*(*time.Time)(fp) = t
			body = rest
		}
	}
	// The freshly allocated struct becomes the interface's data word
	// directly; boxing a copy of it would be the second allocation.
	var v any
	*(*eface)(unsafe.Pointer(&v)) = eface{typ: s.rtype, data: p}
	return v, body, nil
}

// loadTypeDef reads the body of a TTypeDef prefix (after the tag) and
// makes the type it defines resolvable: through the type table if this
// process already knows the reference, else by gob-decoding the zero value
// to find the Go type and checking that its layout is still the one the
// definition describes.
func loadTypeDef(body []byte) (rest []byte, err error) {
	start := body
	nameB, body, err := decodeLenBytes(body)
	if err != nil {
		return nil, err
	}
	nf, n, err := decodeUvarint(body)
	if err != nil {
		return nil, err
	}
	body = body[n:]
	if nf == 0 || nf > uint64(len(body)) {
		return nil, fmt.Errorf("wire: type definition %q: bad field count %d", nameB, nf)
	}
	for i := uint64(0); i < nf; i++ {
		if _, body, err = decodeLenBytes(body); err != nil {
			return nil, err
		}
		if len(body) == 0 || body[0] == 0 || int(body[0]) >= len(kindNames) {
			return nil, fmt.Errorf("wire: type definition %q: bad column kind", nameB)
		}
		body = body[1:]
	}
	identity := start[:len(start)-len(body)]
	zero, body, err := decodeLenBytes(body)
	if err != nil {
		return nil, err
	}
	if s := lookup(&byRef, fingerprint(identity)); s != nil {
		if !bytes.Equal(s.identity, identity) {
			return nil, fmt.Errorf("wire: type definition %q collides with %s on reference %016x", nameB, s.name, s.ref)
		}
		return body, nil
	}
	var z any
	if err := gob.NewDecoder(bytes.NewReader(zero)).Decode(&z); err != nil {
		return nil, fmt.Errorf("wire: resolving struct type %q (is it gob.Register'ed?): %w", nameB, err)
	}
	if z == nil || reflect.TypeOf(z).Kind() != reflect.Struct {
		return nil, fmt.Errorf("wire: type definition %q resolves to %T, not a struct", nameB, z)
	}
	s := SchemaOf(reflect.TypeOf(z))
	if !bytes.Equal(s.identity, identity) {
		return nil, fmt.Errorf("wire: struct type %q changed since it was encoded: stored %s, this process has %s",
			nameB, describeIdentity(identity), describeIdentity(s.identity))
	}
	tableMu.Lock()
	defer tableMu.Unlock()
	return body, fileSchema(s)
}

// describeIdentity renders a validated identity for a mismatch message.
func describeIdentity(identity []byte) string {
	if identity == nil {
		return "a struct the codec does not pack"
	}
	name, b, _ := decodeLenBytes(identity)
	nf, n, _ := decodeUvarint(b)
	b = b[n:]
	var sb strings.Builder
	sb.WriteString(string(name))
	sb.WriteString("{")
	for i := uint64(0); i < nf; i++ {
		var fn []byte
		fn, b, _ = decodeLenBytes(b)
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(string(fn) + " " + kindNames[b[0]])
		b = b[1:]
	}
	sb.WriteString("}")
	return sb.String()
}
