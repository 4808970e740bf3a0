package wire

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

type fuzzStruct struct {
	A int
	B string
}

func init() { gob.Register(fuzzStruct{}) }

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	buf, err := AppendValue(nil, v)
	if err != nil {
		t.Fatalf("encode %#v: %v", v, err)
	}
	got, rest, err := DecodeValue(buf)
	if err != nil {
		t.Fatalf("decode %#v: %v", v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode %#v: %d trailing bytes", v, len(rest))
	}
	return got
}

func TestRoundTripScalars(t *testing.T) {
	cases := []any{
		nil, true, false,
		0, 1, -1, 63, 64, -64, -65, math.MaxInt64, math.MinInt64,
		int32(0), int32(-7), int32(math.MaxInt32),
		int64(42), int64(math.MinInt64),
		uint64(0), uint64(math.MaxUint64),
		0.0, 1.5, -2.25, math.Inf(1), math.SmallestNonzeroFloat64,
		"", "hello", "snapshot_orderinfo", string([]byte{0, 0xff, 0x80}),
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, normalizeInt(v)) {
			t.Errorf("round trip %#v (%T) = %#v (%T)", v, v, got, got)
		}
	}
}

// normalizeInt maps untyped-constant ints in the test table to int (they
// already are); present for symmetry if the table grows.
func normalizeInt(v any) any { return v }

func TestRoundTripComposite(t *testing.T) {
	cases := []any{
		[]byte{},
		[]byte{1, 2, 3},
		[]any{},
		[]any{1, "two", 3.0, nil, true},
		map[string]any{},
		map[string]any{"count": 7, "zone": "berlin", "nested": []any{int64(1)}},
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v = %#v", v, got)
		}
	}
}

func TestEncodeUnregisteredFails(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := AppendValue(nil, unregistered{1}); err == nil {
		t.Fatal("expected error encoding unregistered struct")
	}
}

// TestCanonicalMap checks map encoding is key-order independent: two maps
// built in different insertion orders encode byte-identically.
func TestCanonicalMap(t *testing.T) {
	a := map[string]any{"x": 1, "y": 2, "z": 3}
	b := map[string]any{"z": 3, "x": 1, "y": 2}
	ea, _ := AppendValue(nil, a)
	eb, _ := AppendValue(nil, b)
	if !bytes.Equal(ea, eb) {
		t.Fatalf("map encoding not canonical:\n%x\n%x", ea, eb)
	}
}

func TestSizeExactForScalars(t *testing.T) {
	cases := []any{nil, true, false, 0, -1, 1 << 20, int32(5), int64(-9), uint64(300), 3.14, "abcdef", []byte{1, 2}}
	for _, v := range cases {
		buf, err := AppendValue(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := Size(v); got != len(buf) {
			t.Errorf("Size(%#v) = %d, encoded %d bytes", v, got, len(buf))
		}
	}
}

func TestVersionRoundTrip(t *testing.T) {
	buf, err := AppendVersion(nil, 17, false, "picked_up")
	if err != nil {
		t.Fatal(err)
	}
	buf, err = AppendVersion(buf, 18, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	ssid, tomb, v, rest, err := DecodeVersion(buf)
	if err != nil || ssid != 17 || tomb || v != "picked_up" {
		t.Fatalf("version 1: ssid=%d tomb=%v v=%#v err=%v", ssid, tomb, v, err)
	}
	ssid, tomb, v, rest, err = DecodeVersion(rest)
	if err != nil || ssid != 18 || !tomb || v != nil || len(rest) != 0 {
		t.Fatalf("version 2: ssid=%d tomb=%v v=%#v rest=%d err=%v", ssid, tomb, v, len(rest), err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{0xff},
		{TInt},                   // missing varint
		{TString, 0x05, 'a'},     // short string
		{TFloat64, 1, 2, 3},      // short float
		{TMap, 0xff, 0xff, 0x7f}, // absurd count
		{TInt, 0x80, 0x00},       // non-canonical varint
		{TGob, 0x02, 0x00, 0x00}, // invalid gob
	}
	for _, b := range cases {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(%x) accepted garbage", b)
		}
	}
}

// TestZeroAllocScalarEncode is the alloc-regression gate for the codec
// fast path (satellite: bench-smoke alloc gate). Encoding a scalar into a
// pre-sized buffer must not allocate.
func TestZeroAllocScalarEncode(t *testing.T) {
	buf := make([]byte, 0, 64)
	// Box the values once: interface conversion at the call site is the
	// caller's cost; the guard is that the codec itself stays alloc-free.
	vals := []any{123456, "order-state", 3.5, true}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, v := range vals {
			buf, err = AppendValue(buf, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("scalar encode allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkAppendValueInt(b *testing.B) {
	buf := make([]byte, 0, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendValue(buf[:0], i)
	}
}

func BenchmarkAppendValueString(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendValue(buf[:0], "snapshot_orderinfo")
	}
}

func BenchmarkDecodeValueInt(b *testing.B) {
	buf, _ := AppendValue(nil, 123456789)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeValue(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGobValueInt(b *testing.B) {
	// Baseline for EXPERIMENTS.md: what the old gob path costs per value.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var gb bytes.Buffer
		v := any(123456789)
		if err := gob.NewEncoder(&gb).Encode(&v); err != nil {
			b.Fatal(err)
		}
	}
}
