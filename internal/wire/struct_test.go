package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// orderRow has the shape of the benchmark's state rows: a string, a
// time.Time and two counters.
type orderRow struct {
	OrderState    string
	LateTimestamp time.Time
	StampNs       int64
	Seq           int64
}

type status string

// allKinds has one column of every kind the codec packs, named types
// included.
type allKinds struct {
	B   bool
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64
	S   status
	Bs  []byte
	T   time.Time
}

// numbersOnly decodes in exactly one allocation: no string, no []byte.
type numbersOnly struct {
	A int64
	B float64
	C bool
}

// withSlice has a column the codec does not pack.
type withSlice struct {
	Name string
	Tags []string
}

// withUnexported must not be packed either: the codec would drop x.
type withUnexported struct {
	A int
	x int
}

func init() {
	gob.Register(orderRow{})
	gob.Register(allKinds{})
	gob.Register(numbersOnly{})
	gob.Register(withSlice{})
	gob.Register(withUnexported{})
}

var orderRowVal any = orderRow{
	OrderState:    "PICKED_UP",
	LateTimestamp: time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC),
	StampNs:       1790000000000000000,
	Seq:           123456,
}

func encodeOK(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := AppendValue(nil, v)
	if err != nil {
		t.Fatalf("encode %#v: %v", v, err)
	}
	return buf
}

// TestStructRoundTripEveryKind round-trips extreme and ordinary values of
// every column kind and checks the frame is a TStruct, never a gob stream.
func TestStructRoundTripEveryKind(t *testing.T) {
	berlin := time.FixedZone("CET", 3600)
	cases := []allKinds{
		{},
		{B: true, I: -1, I8: math.MinInt8, I16: math.MinInt16, I32: math.MinInt32, I64: math.MinInt64,
			U: math.MaxUint, U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32, U64: math.MaxUint64,
			F32: math.MaxFloat32, F64: math.SmallestNonzeroFloat64, S: "picked_up", Bs: []byte{0, 0xff},
			T: time.Date(2022, 5, 9, 12, 30, 0, 999999999, time.UTC)},
		{I: math.MaxInt, I8: math.MaxInt8, I16: math.MaxInt16, I32: math.MaxInt32, I64: math.MaxInt64,
			F32: float32(math.Inf(-1)), F64: math.Inf(1), S: status(strings.Repeat("x", 300)),
			T: time.Date(1969, 12, 31, 23, 59, 59, 1, berlin)},
	}
	for _, v := range cases {
		buf := encodeOK(t, v)
		if buf[0] != TStruct {
			t.Fatalf("flat struct encoded with tag 0x%02x, want TStruct", buf[0])
		}
		got, rest, err := DecodeValue(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode %#v: %v (%d trailing)", v, err, len(rest))
		}
		g, ok := got.(allKinds)
		if !ok {
			t.Fatalf("decoded %T, want allKinds", got)
		}
		if !g.T.Equal(v.T) || g.T.Format(time.RFC3339Nano) != v.T.Format(time.RFC3339Nano) {
			t.Errorf("time column %v decoded as %v", v.T, g.T)
		}
		g.T, v.T = time.Time{}, time.Time{}
		if !reflect.DeepEqual(g, v) {
			t.Errorf("round trip\n got %#v\nwant %#v", g, v)
		}
		if re := encodeOK(t, got); !bytes.Equal(re, buf) {
			t.Errorf("re-encode of decoded value differs:\n%x\n%x", buf, re)
		}
	}
}

// TestStructNaNBitsSurvive: float columns move as bits, so a NaN's payload
// round-trips and the frame stays canonical.
func TestStructNaNBitsSurvive(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000abcdef)
	buf := encodeOK(t, numbersOnly{B: nan})
	got, _, err := DecodeValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(got.(numbersOnly).B); bits != 0x7ff8000000abcdef {
		t.Fatalf("NaN payload %x decoded as %x", uint64(0x7ff8000000abcdef), bits)
	}
	if re := encodeOK(t, got); !bytes.Equal(re, buf) {
		t.Fatal("NaN frame is not canonical")
	}
}

// TestStructTimeColumn pins what travels of a time.Time: the instant and
// the zone offset. The zero value comes back as the zero value, a
// monotonic reading is dropped, a non-UTC zone keeps its offset (not its
// name, as with gob), and every form re-encodes to the same bytes.
func TestStructTimeColumn(t *testing.T) {
	type row = orderRow
	rt := func(ts time.Time) (time.Time, []byte) {
		t.Helper()
		buf := encodeOK(t, row{LateTimestamp: ts})
		got, _, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", ts, err)
		}
		if re := encodeOK(t, got); !bytes.Equal(re, buf) {
			t.Fatalf("time %v: frame not canonical", ts)
		}
		return got.(row).LateTimestamp, buf
	}

	if got, _ := rt(time.Time{}); got != (time.Time{}) || !got.IsZero() {
		t.Errorf("zero time decoded as %#v", got)
	}

	now := time.Now() // carries a monotonic reading
	got, withMono := rt(now)
	if !got.Equal(now) {
		t.Errorf("instant changed: %v -> %v", now, got)
	}
	if got != got.Round(0) {
		t.Errorf("decoded time still carries a monotonic reading: %#v", got)
	}
	if _, stripped := rt(now.Round(0)); !bytes.Equal(withMono, stripped) {
		t.Error("monotonic reading changed the encoding")
	}

	tokyo := time.Date(2024, 2, 29, 8, 0, 0, 5, time.FixedZone("JST", 9*3600))
	got, _ = rt(tokyo)
	if _, off := got.Zone(); !got.Equal(tokyo) || off != 9*3600 {
		t.Errorf("zoned time %v decoded as %v", tokyo, got)
	}
	west := time.Date(1999, 12, 31, 23, 0, 0, 0, time.FixedZone("", -(3*3600+1800)))
	got, _ = rt(west)
	if _, off := got.Zone(); !got.Equal(west) || off != -(3*3600+1800) {
		t.Errorf("zoned time %v decoded as %v", west, got)
	}

	utc := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	if got, _ = rt(utc); got != utc {
		t.Errorf("UTC time %#v decoded as %#v", utc, got)
	}
}

// TestUnsupportedFieldFallsBackToGob: a struct the codec does not pack
// still round-trips, through TGob as before.
func TestUnsupportedFieldFallsBackToGob(t *testing.T) {
	for _, v := range []any{
		withSlice{Name: "n", Tags: []string{"a", "b"}},
		withUnexported{A: 7},
	} {
		buf := encodeOK(t, v)
		if buf[0] != TGob {
			t.Fatalf("%T encoded with tag 0x%02x, want the gob fallback", v, buf[0])
		}
		got, _, err := DecodeValue(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v = %#v", v, got)
		}
	}
}

// TestZeroAllocStructEncode is the hard gate of the tentpole: a state row
// encodes into a buffer with room without allocating — bare, and as a row
// of a stream that has already carried its definition.
func TestZeroAllocStructEncode(t *testing.T) {
	buf := make([]byte, 0, 1024)
	var err error
	if a := testing.AllocsPerRun(200, func() {
		buf, err = AppendValue(buf[:0], orderRowVal)
	}); a != 0 || err != nil {
		t.Fatalf("bare struct encode: %v allocs/row (err %v), want 0", a, err)
	}
	if len(buf) > 64 {
		t.Errorf("row encodes to %d bytes; gob took 157", len(buf))
	}
	if a := testing.AllocsPerRun(200, func() {
		var st Stream
		buf, err = st.AppendValue(buf[:0], orderRowVal)
		buf, err = st.AppendValue(buf, orderRowVal)
	}); a != 0 || err != nil {
		t.Fatalf("stream struct encode: %v allocs/run (err %v), want 0", a, err)
	}
}

// TestStructDecodeAllocs: decoding costs one allocation for the struct,
// plus one per non-empty string or []byte column.
func TestStructDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		v    any
		want float64
	}{
		{numbersOnly{A: 1, B: 2.5, C: true}, 1},
		{orderRowVal, 2},
	} {
		buf := encodeOK(t, c.v)
		if a := testing.AllocsPerRun(200, func() { DecodeValue(buf) }); a != c.want {
			t.Errorf("decoding %T allocated %v times, want %v", c.v, a, c.want)
		}
	}
}

// TestStreamDefinesEachTypeOnce: the first row of a type carries the
// definition, later rows and nested rows of the same type do not.
func TestStreamDefinesEachTypeOnce(t *testing.T) {
	var st Stream
	buf, err := st.AppendValue(nil, orderRowVal)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != TTypeDef {
		t.Fatalf("first row starts with tag 0x%02x, want a definition", buf[0])
	}
	first := len(buf)
	if buf, err = st.AppendValue(buf, []any{orderRowVal, numbersOnly{A: 9}}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{orderRow{}, numbersOnly{}} {
		if n := bytes.Count(buf, SchemaOf(reflect.TypeOf(v)).identity); n != 1 {
			t.Errorf("%T defined %d times in one stream", v, n)
		}
	}
	v, rest, err := DecodeValue(buf)
	if err != nil || !reflect.DeepEqual(v, orderRowVal) || len(rest) != len(buf)-first {
		t.Fatalf("first value: %#v, %v", v, err)
	}
	v, rest, err = DecodeValue(rest)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(v, []any{orderRowVal, numbersOnly{A: 9}}) {
		t.Fatalf("second value: %#v, %v", v, err)
	}
}

// TestColdStartDecodesFromDefinition: a process whose type table is empty
// decodes a stream through its definition alone (gob.Register done), and
// a bare frame of a type it has never seen fails loudly.
func TestColdStartDecodesFromDefinition(t *testing.T) {
	var st Stream
	stream, err := st.AppendValue(nil, orderRowVal)
	if err != nil {
		t.Fatal(err)
	}
	bare := encodeOK(t, orderRowVal)

	ResetTypeTable()
	if _, _, err := DecodeValue(bare); err == nil || !strings.Contains(err.Error(), "matches no type") {
		t.Fatalf("bare frame of an unknown type: err = %v", err)
	}
	got, _, err := DecodeValue(stream)
	if err != nil || !reflect.DeepEqual(got, orderRowVal) {
		t.Fatalf("cold stream decode: %#v, %v", got, err)
	}
	// The definition made the type known: the bare frame decodes now.
	if got, _, err := DecodeValue(bare); err != nil || !reflect.DeepEqual(got, orderRowVal) {
		t.Fatalf("bare frame after the definition: %#v, %v", got, err)
	}
}

// olderDefinition returns a stream holding v whose definition was doctored
// by edit, as a binary built from an older version of v's struct would
// have written it: same type name, different columns.
func olderDefinition(t *testing.T, v any, edit func(fields []field) []field) []byte {
	t.Helper()
	s := SchemaOf(reflect.TypeOf(v))
	def, err := s.definition()
	if err != nil {
		t.Fatal(err)
	}
	old := *deriveSchema(s.typ)
	old.fields = edit(append([]field(nil), s.fields...))
	old.identity = appendString(nil, old.name)
	old.identity = AppendUvarint(old.identity, uint64(len(old.fields)))
	for _, f := range old.fields {
		old.identity = append(appendString(old.identity, f.name), f.kind)
	}
	old.ref = fingerprint(old.identity)
	buf := append([]byte{TTypeDef}, old.identity...)
	buf = append(buf, def[len(s.identity):]...) // the gob zero value
	buf = append(buf, TStruct)
	buf = binary.LittleEndian.AppendUint64(buf, old.ref)
	return append(buf, 0x02, 0x02, 0x02, 0x02) // plausible columns: must not be reached
}

// TestDefinitionMismatchFailsLoudly: rows written before a field was added
// to, or retyped in, the struct are refused by name instead of being
// parsed against the wrong columns.
func TestDefinitionMismatchFailsLoudly(t *testing.T) {
	cases := map[string]func([]field) []field{
		"field added since":   func(f []field) []field { return f[:len(f)-1] },
		"field retyped since": func(f []field) []field { f[0].kind = kInt32; return f },
		"field renamed since": func(f []field) []field { f[1].name = "Old"; return f },
	}
	for name, edit := range cases {
		buf := olderDefinition(t, numbersOnly{}, edit)
		_, _, err := DecodeValue(buf)
		if err == nil || !strings.Contains(err.Error(), "changed since it was encoded") ||
			!strings.Contains(err.Error(), "numbersOnly") {
			t.Errorf("%s: err = %v", name, err)
		}
		// Without the definition the row's reference resolves to nothing.
		if _, _, err := DecodeValue(buf[bytes.IndexByte(buf, TStruct):]); err == nil {
			t.Errorf("%s: row of the old layout decoded against the new one", name)
		}
	}
}

// TestStructDecodeRejectsGarbage: non-canonical or truncated columns are
// errors, never a misparse or a panic.
func TestStructDecodeRejectsGarbage(t *testing.T) {
	good := encodeOK(t, numbersOnly{A: 1, B: 2, C: true})
	for i := 1; i < len(good); i++ {
		if _, _, err := DecodeValue(good[:i]); err == nil {
			t.Errorf("truncated frame of %d bytes accepted", i)
		}
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] = 2 // bool column
	if _, _, err := DecodeValue(bad); err == nil {
		t.Error("bool column 2 accepted")
	}
	// An int8 column holding 200 (zigzag 400), after B and I.
	encodeOK(t, allKinds{})
	ref := SchemaOf(reflect.TypeOf(allKinds{})).ref
	narrow := append(binary.LittleEndian.AppendUint64([]byte{TStruct}, ref), 0, 0, 0x90, 0x03)
	if _, _, err := DecodeValue(narrow); err == nil || !strings.Contains(err.Error(), "overflows int8") {
		t.Errorf("int8 column out of range: err = %v", err)
	}
}

func BenchmarkAppendValueStruct(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendValue(buf[:0], orderRowVal)
	}
}

func BenchmarkDecodeValueStruct(b *testing.B) {
	buf, _ := AppendValue(nil, orderRowVal)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeValue(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGobValueStruct is what the same row cost through the per-value
// gob fallback this codec replaced.
func BenchmarkGobValueStruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var gb bytes.Buffer
		v := orderRowVal
		if err := gob.NewEncoder(&gb).Encode(&v); err != nil {
			b.Fatal(err)
		}
	}
}
