package wire

import (
	"bytes"
	"testing"
	"time"
)

// FuzzWire is the codec's round-trip invariant: any byte string the
// decoder accepts must re-encode byte-identically (canonical form), and
// the decoder must never panic on arbitrary input. Frames holding a gob
// fallback or a type definition are exempt from byte-identity (gob
// streams are not canonical, and a bare re-encode carries no definition).
func FuzzWire(f *testing.F) {
	seeds := []any{
		nil, true, false, 0, -1, 1 << 40, int32(7), int64(-9), uint64(1 << 63),
		2.75, "hello", []byte{0, 1, 2},
		[]any{1, "two", nil},
		map[string]any{"a": 1, "b": []any{true, 2.5}},
	}
	for _, v := range seeds {
		buf, err := AppendValue(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Struct rows: bare, nested, and as streams carrying their definitions
	// — the seeds also make the types known to each fuzz worker, so mutated
	// columns reach the struct decoder instead of dying on the reference.
	rows := []any{
		fuzzStruct{A: -7, B: "state"},
		orderRowVal,
		allKinds{B: true, I8: -3, U16: 9, F32: 1.5, S: "s", Bs: []byte{1}, T: time.Unix(1, 2).In(time.FixedZone("", -3600))},
		[]any{numbersOnly{A: 1}, "x", numbersOnly{C: true}},
		map[string]any{"row": orderRowVal},
	}
	for _, v := range rows {
		bare, err := AppendValue(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bare)
		var st Stream
		defined, err := st.AppendValue(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(defined)
	}
	f.Add([]byte{TGob, 0x00})
	f.Add([]byte{TStruct, 1, 2, 3, 4, 5, 6, 7, 8, 0})
	f.Add([]byte{TTypeDef, 0x01, 'x', 0x01, 0x01, 'A', kInt, 0x00, TNil})
	f.Add([]byte{0xff, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := DecodeValue(data)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		consumed := data[:len(data)-len(rest)]
		if hasGobOrDef(consumed) {
			return
		}
		re, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("re-encode of decoded value %#v failed: %v", v, err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("round trip not byte-identical:\nin:  %x\nout: %x\nvalue: %#v", consumed, re, v)
		}
	})
}

// hasGobOrDef reports whether an accepted encoding contains a gob-fallback
// value or a type definition anywhere (including nested in maps/slices).
// Conservative: scans for the tag bytes at any position, which can only
// over-exempt.
func hasGobOrDef(b []byte) bool {
	return bytes.IndexByte(b, TGob) >= 0 || bytes.IndexByte(b, TTypeDef) >= 0
}
