package rlz

import (
	"bytes"
	"compress/zlib"
	"errors"
	"runtime"
	"testing"

	"rlz/internal/coding"
)

// zlibZeros returns a zlib stream of n zero bytes, written in chunks so
// building the bomb does not itself allocate n bytes.
func zlibZeros(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, zlib.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for ; n > 0; n -= len(chunk) {
		if _, err := zw.Write(chunk[:min(n, len(chunk))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// record frames a factor count and two raw streams the way Encode does.
func record(k int, posBlob, lenBlob []byte) []byte {
	rec := coding.PutUvarint32(nil, uint32(k))
	rec = coding.PutUvarint32(rec, uint32(len(posBlob)))
	rec = append(rec, posBlob...)
	rec = coding.PutUvarint32(rec, uint32(len(lenBlob)))
	return append(rec, lenBlob...)
}

// TestCodecDecodeRejectsZlibBomb: a small record carrying a zlib stream
// that inflates to 64 MiB must be rejected without inflating it. A record
// declaring one factor meets the stream cap its count allows (positions
// 4k bytes, Z lengths 5k). A record declaring as many factors as the
// position stream could hold (k = 256 bytes of record per factor, the
// count check's limit) is rejected because its raw length stream cannot
// hold k lengths. Either costs a few bytes, not the 256 MiB an unbounded
// inflate grows to.
func TestCodecDecodeRejectsZlibBomb(t *testing.T) {
	bomb := zlibZeros(t, 64<<20)
	huge := 256 * len(bomb)
	cases := []struct {
		name  string
		codec PairCodec
		rec   []byte
	}{
		{"positions", CodecZV, record(1, bomb, coding.PutUvarint32(nil, 5))},
		{"lengths", CodecUZ, record(1, coding.PutU32(nil, 7), bomb)},
		{"count/ZV", CodecZV, record(huge, bomb, coding.PutUvarint32(nil, 5))},
		{"count/ZS", CodecZS, record(huge, bomb, []byte{lenModeSimple9, 0, 0, 0, 0})},
		{"count/ZH", CodecZH, record(huge, bomb, []byte{1, 0, 32})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.codec.Decode(nil, tc.rec) // warm the inflate pool
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			fs, _, err := tc.codec.Decode(nil, tc.rec)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorruptEncoding) {
				t.Fatalf("bomb decoded to %d factors, err %v; want ErrCorruptEncoding", len(fs), err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("rejecting a %d-byte record allocated %d bytes, want < 1 MiB", len(tc.rec), grew)
			}
		})
	}
}

// TestCodecDecodeStreamLimits: streams holding exactly what their factor
// count allows decode (here both lengths take the longest uvarint32, so
// the length stream is exactly 5k bytes); one byte more is rejected.
func TestCodecDecodeStreamLimits(t *testing.T) {
	fs := []Factor{{Pos: 1 << 30, Len: 1<<32 - 1}, {Pos: 7, Len: 1<<32 - 1}}
	var pos, lens []byte
	for _, f := range fs {
		pos = coding.PutU32(pos, f.Pos)
		lens = coding.PutUvarint32(lens, f.Len)
	}
	got, _, err := CodecZZ.Decode(nil, record(2, deflateBlob(pos), deflateBlob(lens)))
	if err != nil || len(got) != 2 || got[0] != fs[0] || got[1] != fs[1] {
		t.Fatalf("in-limit record: %v, %v", got, err)
	}
	overPos := append(append([]byte{}, pos...), 0)
	if _, _, err := CodecZZ.Decode(nil, record(2, deflateBlob(overPos), deflateBlob(lens))); !errors.Is(err, ErrCorruptEncoding) {
		t.Errorf("position stream one byte long: err %v", err)
	}
	overLens := append(append([]byte{}, lens...), 0)
	if _, _, err := CodecZZ.Decode(nil, record(2, deflateBlob(pos), deflateBlob(overLens))); !errors.Is(err, ErrCorruptEncoding) {
		t.Errorf("length stream one byte past 5k: err %v", err)
	}
}
