package store

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"rlz/internal/coding"
	"rlz/internal/rlz"
)

// FuzzOpenBytes throws arbitrary bytes at the archive opener and, when an
// archive opens, at every document: no input may cause a panic, and any
// document that decodes must decode deterministically.
func FuzzOpenBytes(f *testing.F) {
	docs := [][]byte{
		[]byte("<html>shared boilerplate one</html>"),
		[]byte("<html>shared boilerplate two</html>"),
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []byte("<html>shared boilerplate </html>"), rlz.CodecZV)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range docs {
		if _, err := w.Append(d); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("RLZA"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBytes(data)
		if err != nil {
			return
		}
		for id := 0; id < r.NumDocs() && id < 64; id++ {
			a, errA := r.Get(id)
			b, errB := r.Get(id)
			if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
				t.Fatalf("document %d decodes non-deterministically", id)
			}
		}
	})
}

// cutLenStream returns rec with its length stream cut short by n bytes
// and re-framed, so decoding a zlib-coded one fails inside the inflate.
func cutLenStream(rec []byte, n int) []byte {
	_, a, _ := coding.Uvarint32(rec)
	pl, b, _ := coding.Uvarint32(rec[a:])
	posEnd := a + b + int(pl)
	ll, c, _ := coding.Uvarint32(rec[posEnd:])
	lens := rec[posEnd+c : posEnd+c+int(ll)]
	out := append([]byte{}, rec[:posEnd]...)
	out = coding.PutUvarint32(out, uint32(len(lens)-n))
	return append(out, lens[:len(lens)-n]...)
}

// FuzzCodecDecode exercises every pair codec's decoder on arbitrary
// record bytes. Decode draws its inflate state from a pool, so each input
// is decoded, then a different valid record, then the input again: the
// two decodes of the input must agree exactly, whether it decoded or
// failed part-way through an inflate.
func FuzzCodecDecode(f *testing.F) {
	fs := []rlz.Factor{{Pos: 3, Len: 10}, {Pos: 'x', Len: 0}, {Pos: 0, Len: 1}}
	for _, c := range rlz.AllCodecs {
		f.Add(c.String(), c.Encode(nil, fs))
	}
	f.Add("US", rlz.CodecUS.Encode(nil, fs))
	// ZZ records that fail inside the length stream's inflate: a bad
	// Adler-32 and a stream cut short.
	zz := rlz.CodecZZ.Encode(nil, fs)
	badSum := append([]byte{}, zz...)
	badSum[len(badSum)-1] ^= 0xFF
	f.Add("ZZ", badSum)
	f.Add("ZZ", cutLenStream(zz, 3))
	other := make([]rlz.Factor, 40)
	for i := range other {
		other[i] = rlz.Factor{Pos: uint32(i * 977), Len: uint32(i % 7)}
	}
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		codec, err := rlz.CodecByName(name)
		if err != nil {
			return
		}
		dec, used, err := codec.Decode(nil, data)
		mid, _, midErr := codec.Decode(nil, codec.Encode(nil, other))
		if midErr != nil || !slices.Equal(mid, other) {
			t.Fatalf("valid record after the input decoded to %v, %v", mid, midErr)
		}
		again, usedAgain, errAgain := codec.Decode(nil, data)
		if fmt.Sprint(err) != fmt.Sprint(errAgain) || used != usedAgain || !slices.Equal(dec, again) {
			t.Fatalf("decoding the input twice disagrees: (%d factors, %d, %v) then (%d factors, %d, %v)",
				len(dec), used, err, len(again), usedAgain, errAgain)
		}
		if err != nil {
			return
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		// Accepted records must re-encode and re-decode to the same
		// factors (the encoding is canonical for a factor sequence).
		enc := codec.Encode(nil, dec)
		dec2, _, err := codec.Decode(nil, enc)
		if err != nil || len(dec2) != len(dec) {
			t.Fatalf("re-encode failed: %v", err)
		}
		for i := range dec {
			if dec[i] != dec2[i] {
				t.Fatalf("factor %d changed across re-encode", i)
			}
		}
	})
}
