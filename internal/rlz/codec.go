package rlz

import (
	"bytes"
	"compress/zlib"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"rlz/internal/coding"
)

// PosCoding selects how factor positions are encoded (§3.4 of the paper).
type PosCoding byte

// LenCoding selects how factor lengths are encoded (§3.4 of the paper).
type LenCoding byte

// The paper's codings: U stores each position as an unsigned 32-bit
// integer; V stores each length as a vbyte; Z compresses the respective
// stream for a document with zlib at best compression, exploiting the
// higher-order within-document patterns the paper observed in both
// positions and lengths. S (Simple9 word-aligned packing) implements the
// alternative integer coding the paper's future-work section proposes for
// lengths.
// H (semi-static Huffman over length slots) is a further extension point
// between V and Z in decode cost.
const (
	PosU PosCoding = 'U'
	PosZ PosCoding = 'Z'
	LenV LenCoding = 'V'
	LenZ LenCoding = 'Z'
	LenS LenCoding = 'S'
	LenH LenCoding = 'H'
)

// PairCodec encodes a document's factors as the paper does: positions and
// lengths are grouped into two separate streams, each compressed with its
// own coding. The four combinations evaluated in the paper are ZZ, ZV, UZ
// and UV (position coding named first).
type PairCodec struct {
	Pos PosCoding
	Len LenCoding
}

// The four codecs evaluated throughout the paper's Tables 4, 5 and 8,
// plus the future-work Simple9 variants (US, ZS).
var (
	CodecZZ = PairCodec{PosZ, LenZ}
	CodecZV = PairCodec{PosZ, LenV}
	CodecUZ = PairCodec{PosU, LenZ}
	CodecUV = PairCodec{PosU, LenV}
	CodecUS = PairCodec{PosU, LenS}
	CodecZS = PairCodec{PosZ, LenS}
	CodecUH = PairCodec{PosU, LenH}
	CodecZH = PairCodec{PosZ, LenH}
)

// AllCodecs lists the paper's codecs in the order its tables present them.
var AllCodecs = []PairCodec{CodecZZ, CodecZV, CodecUZ, CodecUV}

// ExtensionCodecs lists the codecs this implementation adds beyond the
// paper: Simple9-coded lengths (the integer coding §6 proposes exploring)
// and semi-static Huffman-coded lengths.
var ExtensionCodecs = []PairCodec{CodecZS, CodecUS, CodecZH, CodecUH}

// CodecByName parses a codec name such as "ZV" or "US".
func CodecByName(name string) (PairCodec, error) {
	if len(name) != 2 {
		return PairCodec{}, fmt.Errorf("rlz: bad codec name %q", name)
	}
	c := PairCodec{PosCoding(name[0]), LenCoding(name[1])}
	if (c.Pos != PosU && c.Pos != PosZ) ||
		(c.Len != LenV && c.Len != LenZ && c.Len != LenS && c.Len != LenH) {
		return PairCodec{}, fmt.Errorf("rlz: bad codec name %q", name)
	}
	return c, nil
}

// String returns the paper's two-letter name for the codec.
func (c PairCodec) String() string { return string(c.Pos) + string(c.Len) }

// ErrCorruptEncoding is returned when decoding malformed factor blobs.
var ErrCorruptEncoding = errors.New("rlz: corrupt factor encoding")

// Length-stream mode flags for the Simple9 coding (first byte of the
// length stream): the normal word-aligned form and the vbyte fallback for
// out-of-range values.
const (
	lenModeSimple9 = 0
	lenModeVByte   = 1
)

// Encode appends the encoded factors of one document to dst. Layout:
//
//	vbyte  factor count k
//	vbyte  byte length of the position stream
//	       position stream (k positions; U = 4k bytes, Z = zlib blob)
//	vbyte  byte length of the length stream
//	       length stream (k lengths; V = vbytes, Z = zlib blob of vbytes)
//
// Literal factors participate as (byte value, 0) pairs, exactly as the
// paper stores them.
func (c PairCodec) Encode(dst []byte, factors []Factor) []byte {
	dst = coding.PutUvarint32(dst, uint32(len(factors)))
	if len(factors) == 0 {
		return dst
	}

	var posRaw, lenRaw []byte
	for _, f := range factors {
		posRaw = coding.PutU32(posRaw, f.Pos)
	}
	if c.Pos == PosZ {
		posRaw = deflateBlob(posRaw)
	}
	switch c.Len {
	case LenS:
		// Simple9 needs values below 2^28; a factor that long implies a
		// dictionary over 256 MiB *and* a quarter-gigabyte match, but the
		// format stays sound by falling back to vbyte for the document,
		// flagged in the stream's first byte.
		lens := make([]uint32, len(factors))
		for i, f := range factors {
			lens[i] = f.Len
		}
		if s9, err := coding.PutSimple9([]byte{lenModeSimple9}, lens); err == nil {
			lenRaw = s9
		} else {
			lenRaw = []byte{lenModeVByte}
			lenRaw = coding.AppendUvarint32s(lenRaw, lens)
		}
	case LenH:
		lenRaw = encodeLensHuffman(nil, factors)
	default:
		for _, f := range factors {
			lenRaw = coding.PutUvarint32(lenRaw, f.Len)
		}
		if c.Len == LenZ {
			lenRaw = deflateBlob(lenRaw)
		}
	}
	dst = coding.PutUvarint32(dst, uint32(len(posRaw)))
	dst = append(dst, posRaw...)
	dst = coding.PutUvarint32(dst, uint32(len(lenRaw)))
	dst = append(dst, lenRaw...)
	return dst
}

// Decode parses one document's factors from src, appending to factors. It
// returns the factors, the number of bytes consumed, and any error.
func (c PairCodec) Decode(factors []Factor, src []byte) ([]Factor, int, error) {
	k32, used, err := coding.Uvarint32(src)
	if err != nil {
		return factors, 0, fmt.Errorf("%w: count: %v", ErrCorruptEncoding, err)
	}
	pos := used
	k := int(k32)
	if k == 0 {
		return factors, pos, nil
	}
	if k > len(src)*256 { // each factor needs at least some encoded bytes somewhere
		return factors, pos, fmt.Errorf("%w: implausible factor count %d", ErrCorruptEncoding, k)
	}

	posBlob, n, err := readBlob(src[pos:])
	if err != nil {
		return factors, pos, fmt.Errorf("%w: position stream: %v", ErrCorruptEncoding, err)
	}
	pos += n
	lenBlob, n, err := readBlob(src[pos:])
	if err != nil {
		return factors, pos, fmt.Errorf("%w: length stream: %v", ErrCorruptEncoding, err)
	}
	pos += n
	if k > c.maxFactors(len(posBlob), len(lenBlob)) {
		return factors, pos, fmt.Errorf("%w: %d factors in %d position and %d length bytes", ErrCorruptEncoding, k, len(posBlob), len(lenBlob))
	}

	st := inflaters.Get().(*inflater)
	factors, err = c.decodeStreams(st, factors, k, posBlob, lenBlob)
	if cap(st.out) > maxPooledInflate {
		st.out = nil // do not pin one outsized record's buffer in the pool
	}
	inflaters.Put(st)
	return factors, pos, err
}

// maxFactors bounds the factor count a record's streams can hold, judged
// by whichever stream is stored without zlib, so a record cannot declare
// more factors than its raw bytes allow and have Decode inflate and
// allocate for them. U positions take exactly 4 bytes each; a length
// takes at least a byte as a vbyte (V, and S's vbyte fallback), a bit
// under Huffman (H), and a seventh of a byte packed 28 to a Simple9 word
// (S). ZZ has no raw stream: its streams are bounded only by the size
// the count allows (see inflate), so a ZZ record of n bytes may still
// inflate to zlib's maximum expansion of about 1000n before it is
// rejected.
func (c PairCodec) maxFactors(posBytes, lenBytes int) int {
	switch {
	case c.Pos == PosU:
		return posBytes / 4
	case c.Len == LenV:
		return lenBytes
	case c.Len == LenS:
		return 7 * lenBytes
	case c.Len == LenH:
		return 8 * lenBytes
	}
	return math.MaxInt
}

// decodeStreams appends the k factors held in the (still encoded)
// position and length streams to factors. On error factors comes back
// at its original length.
func (c PairCodec) decodeStreams(st *inflater, factors []Factor, k int, posBlob, lenBlob []byte) ([]Factor, error) {
	var err error
	if c.Pos == PosZ {
		posBlob, err = st.inflate(posBlob, 4*k)
		if err != nil {
			return factors, fmt.Errorf("%w: position zlib: %v", ErrCorruptEncoding, err)
		}
	}
	if len(posBlob) != 4*k {
		return factors, fmt.Errorf("%w: position stream holds %d bytes for %d factors", ErrCorruptEncoding, len(posBlob), k)
	}
	base := len(factors)
	factors = slices.Grow(factors, k)
	for i := 0; i < k; i++ {
		p, _ := coding.U32(posBlob[4*i:])
		factors = append(factors, Factor{Pos: p})
	}
	// The position bytes are consumed, so the length stream may reuse
	// the inflate buffer.
	if c.Len == LenZ {
		lenBlob, err = st.inflate(lenBlob, coding.MaxVByteLen32*k)
		if err != nil {
			return factors[:base], fmt.Errorf("%w: length zlib: %v", ErrCorruptEncoding, err)
		}
	}
	if err := c.decodeLens(factors[base:], lenBlob); err != nil {
		return factors[:base], err
	}
	return factors, nil
}

// decodeLens fills in the Len field of factors from the (already
// de-zlibbed) length stream.
func (c PairCodec) decodeLens(factors []Factor, lenBlob []byte) error {
	k := len(factors)
	if c.Len == LenH {
		return decodeLensHuffman(factors, lenBlob)
	}
	if c.Len == LenS {
		if len(lenBlob) == 0 {
			return fmt.Errorf("%w: empty simple9 length stream", ErrCorruptEncoding)
		}
		mode := lenBlob[0]
		body := lenBlob[1:]
		if mode == lenModeSimple9 {
			vals, used, err := coding.Simple9(body, k, nil)
			if err != nil {
				return fmt.Errorf("%w: simple9 lengths: %v", ErrCorruptEncoding, err)
			}
			if used != len(body) {
				return fmt.Errorf("%w: %d trailing bytes in length stream", ErrCorruptEncoding, len(body)-used)
			}
			for i, v := range vals {
				factors[i].Len = v
			}
			return nil
		}
		if mode != lenModeVByte {
			return fmt.Errorf("%w: unknown length mode %d", ErrCorruptEncoding, mode)
		}
		lenBlob = body
	}
	off := 0
	for i := 0; i < k; i++ {
		l, n, err := coding.Uvarint32(lenBlob[off:])
		if err != nil {
			return fmt.Errorf("%w: length %d: %v", ErrCorruptEncoding, i, err)
		}
		factors[i].Len = l
		off += n
	}
	if off != len(lenBlob) {
		return fmt.Errorf("%w: %d trailing bytes in length stream", ErrCorruptEncoding, len(lenBlob)-off)
	}
	return nil
}

func readBlob(src []byte) ([]byte, int, error) {
	size, n, err := coding.Uvarint32(src)
	if err != nil {
		return nil, 0, err
	}
	if int(size) > len(src)-n {
		return nil, 0, coding.ErrShortBuffer
	}
	return src[n : n+int(size)], n + int(size), nil
}

// deflateBlob compresses raw with zlib at best compression, as the paper's
// Z coding does ("zlib with z best compression").
func deflateBlob(raw []byte) []byte {
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, zlib.BestCompression)
	if err != nil {
		panic("rlz: zlib writer: " + err.Error()) // level is a valid constant
	}
	if _, err := zw.Write(raw); err != nil {
		panic("rlz: zlib write to memory: " + err.Error())
	}
	if err := zw.Close(); err != nil {
		panic("rlz: zlib close: " + err.Error())
	}
	return buf.Bytes()
}

// inflater is the reusable state for inflating a record's zlib
// streams: the window and Huffman tables of one zlib reader, re-armed per
// stream through zlib.Resetter, and the buffer the stream inflates into.
// Decode draws one from inflaters, so steady-state decodes allocate no
// inflate state on any caller's path.
type inflater struct {
	br  bytes.Reader
	zr  io.ReadCloser // also a zlib.Resetter
	out []byte
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// maxPooledInflate caps the buffer an inflater keeps between decodes.
const maxPooledInflate = 1 << 20

// inflate decompresses blob into st's buffer, failing once the stream
// exceeds limit bytes: a stream may not hold more than its factor count
// allows, and Decode has already bounded that count by the record's raw
// stream (maxFactors), except under ZZ. The buffer
// grows only with bytes actually inflated, and a stream that fits is
// read to EOF, which makes zlib verify its Adler-32. The result is valid
// until st's next inflate.
func (st *inflater) inflate(blob []byte, limit int) ([]byte, error) {
	st.br.Reset(blob)
	if st.zr == nil {
		zr, err := zlib.NewReader(&st.br)
		if err != nil {
			return nil, err
		}
		st.zr = zr
	} else if err := st.zr.(zlib.Resetter).Reset(&st.br, nil); err != nil {
		return nil, err
	}
	out := st.out[:0]
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		// Read at most one byte past the limit: enough to detect overflow.
		room := min(cap(out), limit+1)
		n, err := st.zr.Read(out[len(out):room])
		out = out[:len(out)+n]
		st.out = out
		if len(out) > limit {
			return nil, fmt.Errorf("stream inflates past %d bytes", limit)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// EncodedSize returns the size in bytes of the encoded form of factors
// under this codec without retaining the encoding.
func (c PairCodec) EncodedSize(factors []Factor) int {
	return len(c.Encode(nil, factors))
}
