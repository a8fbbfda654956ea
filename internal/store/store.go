// Package store implements the on-disk RLZ archive container: the format
// that ties together the dictionary, the per-document factor encodings and
// the document map (§3.1 of the paper).
//
// Layout (all integers little-endian or vbyte):
//
//	header   magic "RLZA", version, position coding, length coding
//	         vbyte dictionary length, dictionary bytes
//	payload  per-document factor records (PairCodec framing), concatenated
//	docmap   delta-vbyte document map
//	footer   u64 absolute offset of docmap, magic "RLZE"
//
// A Reader keeps the dictionary resident in memory (the property RLZ's
// random-access speed rests on) and reads only the requested document's
// record from the payload region, so a Get touches O(record) bytes of
// storage regardless of collection size.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"unsafe"

	"rlz/internal/coding"
	"rlz/internal/docmap"
	"rlz/internal/rlz"
)

const (
	version     = 1
	headerMagic = "RLZA"
	footerMagic = "RLZE"
	footerSize  = 8 + 4
)

// ErrCorruptArchive is returned when an archive fails structural checks.
var ErrCorruptArchive = errors.New("store: corrupt archive")

// Writer builds an RLZ archive by factorizing appended documents against a
// fixed dictionary. It must be closed to produce a readable archive.
type Writer struct {
	w       countingWriter
	dict    *rlz.Dictionary
	codec   rlz.PairCodec
	fopts   rlz.FactorizerOptions
	fz      *rlz.Factorizer // lazy: prefactored writers never factorize
	m       *docmap.Map
	stats   *rlz.Stats
	heat    *rlz.RegionHeat
	factors []rlz.Factor // reused across Appends
	scratch []byte
	closed  bool
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// NewWriter starts an archive on w using the given dictionary text and
// pair codec. The dictionary's suffix array is built here (O(m) time,
// O(m) extra memory), after which each Append runs in O(doc log m).
func NewWriter(w io.Writer, dictData []byte, codec rlz.PairCodec) (*Writer, error) {
	dict, err := rlz.NewDictionary(dictData)
	if err != nil {
		return nil, err
	}
	return newWriter(w, dict, dictData, codec)
}

// NewWriterPrefactored starts an archive whose documents will be supplied
// as ready-made factorizations via AppendFactors, skipping suffix-array
// construction. This lets one factorization pass feed several archives
// with different pair codecs (as the experiment harness does for the
// paper's ZZ/ZV/UZ/UV grid).
func NewWriterPrefactored(w io.Writer, dictData []byte, codec rlz.PairCodec) (*Writer, error) {
	dict, err := rlz.NewDictionaryForDecode(dictData)
	if err != nil {
		return nil, err
	}
	return newWriter(w, dict, dictData, codec)
}

// NewWriterFromDictionary starts an archive on w reusing an
// already-indexed dictionary, whose text is written into the header
// like any other writer's. N writers sharing one Dictionary pay its
// O(m) suffix-array construction once instead of N times — the sharded
// build path, where every shard embeds the same global dictionary.
// Factorize is safe for concurrent use, so the writers may run on
// separate goroutines.
func NewWriterFromDictionary(w io.Writer, dict *rlz.Dictionary, codec rlz.PairCodec) (*Writer, error) {
	return newWriter(w, dict, dict.Bytes(), codec)
}

func newWriter(w io.Writer, dict *rlz.Dictionary, dictData []byte, codec rlz.PairCodec) (*Writer, error) {
	sw := &Writer{
		w:     countingWriter{w: w},
		dict:  dict,
		codec: codec,
		m:     docmap.New(),
	}
	var hdr []byte
	hdr = append(hdr, headerMagic...)
	hdr = append(hdr, version, byte(codec.Pos), byte(codec.Len))
	hdr = coding.PutUvarint64(hdr, uint64(len(dictData)))
	hdr = append(hdr, dictData...)
	if _, err := sw.w.Write(hdr); err != nil {
		return nil, fmt.Errorf("store: writing header: %w", err)
	}
	return sw, nil
}

// CollectStats attaches a statistics accumulator that will observe every
// factorization performed by subsequent Appends. Pass nil to detach.
func (w *Writer) CollectStats(s *rlz.Stats) { w.stats = s }

// CollectHeat attaches a dictionary-usage accumulator that will observe
// every factorization performed by subsequent Appends — the signal
// adaptive re-sampling ranks hot/cold dictionary regions by. Pass nil to
// detach. Like CollectStats, documents committed via AppendEncoded are
// not observed here; parallel build pipelines feed the accumulator from
// their workers instead (archive.Options.Heat).
func (w *Writer) CollectHeat(h *rlz.RegionHeat) { w.heat = h }

// Dictionary returns the writer's dictionary (e.g. to share with other
// writers or to inspect).
func (w *Writer) Dictionary() *rlz.Dictionary { return w.dict }

// Codec returns the writer's pair codec, so external build pipelines can
// encode records off-thread and commit them with AppendEncoded.
func (w *Writer) Codec() rlz.PairCodec { return w.codec }

// ConfigureFactorizer selects the factorization engine tuning (jump-table
// q-gram width, off-switch) for subsequent Appends. It must be called
// before the first Append; the tuning changes speed only — factor output
// is byte-identical at any setting.
func (w *Writer) ConfigureFactorizer(opts rlz.FactorizerOptions) {
	w.fopts = opts
	w.fz = nil
}

// FactorizerOptions returns the engine tuning Appends use, so external
// build pipelines (archive.Build) can run matching per-worker engines.
func (w *Writer) FactorizerOptions() rlz.FactorizerOptions { return w.fopts }

// Append factorizes doc and writes its record, returning the document ID.
func (w *Writer) Append(doc []byte) (int, error) {
	if w.closed {
		return 0, errors.New("store: append to closed writer")
	}
	if w.fz == nil {
		// Lazy: a prefactored or encoded-record writer never factorizes,
		// so the engine (and a decode-only dictionary's suffix array) is
		// only built when a document actually needs it.
		w.fz = rlz.NewFactorizer(w.dict, w.fopts)
	}
	w.factors = w.fz.Factorize(doc, w.factors[:0])
	return w.appendFactors(w.factors)
}

// AppendFactors writes a document supplied as a ready-made factorization
// against this archive's dictionary, returning the document ID. The
// caller is responsible for the factors referencing this dictionary;
// readers validate factor bounds at decode time.
func (w *Writer) AppendFactors(factors []rlz.Factor) error {
	if w.closed {
		return errors.New("store: append to closed writer")
	}
	_, err := w.appendFactors(factors)
	return err
}

// AppendEncoded commits a document record already encoded with this
// writer's Codec against its Dictionary, returning the document ID. This
// is the ordered-commit half of a parallel build: factorization and pair
// encoding run on worker goroutines, records land here in document order,
// and the resulting archive is byte-for-byte identical to sequential
// Appends. Statistics attached via CollectStats do not observe documents
// appended this way.
func (w *Writer) AppendEncoded(rec []byte) (int, error) {
	if w.closed {
		return 0, errors.New("store: append to closed writer")
	}
	if _, err := w.w.Write(rec); err != nil {
		return 0, fmt.Errorf("store: writing document: %w", err)
	}
	return w.m.Append(uint64(len(rec))), nil
}

func (w *Writer) appendFactors(factors []rlz.Factor) (int, error) {
	if w.stats != nil {
		w.stats.Observe(factors)
	}
	if w.heat != nil {
		w.heat.Observe(factors)
	}
	w.scratch = w.codec.Encode(w.scratch[:0], factors)
	if _, err := w.w.Write(w.scratch); err != nil {
		return 0, fmt.Errorf("store: writing document: %w", err)
	}
	return w.m.Append(uint64(len(w.scratch))), nil
}

// NumDocs returns the number of documents appended so far.
func (w *Writer) NumDocs() int { return w.m.Len() }

// BytesWritten returns the archive size so far (header + payload).
func (w *Writer) BytesWritten() int64 { return w.w.n }

// Close writes the document map and footer. The underlying io.Writer is
// not closed (the caller owns it).
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	mapOff := w.w.n
	var tail []byte
	tail = w.m.Marshal(tail)
	tail = coding.PutU64(tail, uint64(mapOff))
	tail = append(tail, footerMagic...)
	if _, err := w.w.Write(tail); err != nil {
		return fmt.Errorf("store: writing footer: %w", err)
	}
	return nil
}

// Reader provides random access to an RLZ archive. The dictionary text is
// held in memory; document records are read on demand.
//
// Concurrency: all Reader methods, including FindAll and GetRange, are
// safe for concurrent use by multiple goroutines as long as each call
// passes a distinct destination buffer. Per-call decode state (record
// buffers, factor slices, zlib inflaters) is drawn from sync.Pools and
// owned by one call at a time, the document map and dictionary text are
// immutable after Open, and the dictionary's lazily built suffix array
// is guarded by a sync.Once.
type Reader struct {
	r            io.ReaderAt
	dict         *rlz.Dictionary
	codec        rlz.PairCodec
	m            *docmap.Map
	payloadStart int64
	size         int64
	closer       io.Closer
	factors      slicePool[rlz.Factor]
	recs         slicePool[byte] // record buffers when r is not a mapping
}

// Open reads an archive's header, dictionary and document map from r,
// which must cover size bytes.
func Open(r io.ReaderAt, size int64) (*Reader, error) {
	// Footer.
	if size < footerSize {
		return nil, fmt.Errorf("%w: %d bytes is smaller than a footer", ErrCorruptArchive, size)
	}
	foot := make([]byte, footerSize)
	if _, err := r.ReadAt(foot, size-footerSize); err != nil {
		return nil, fmt.Errorf("store: reading footer: %w", err)
	}
	if string(foot[8:]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorruptArchive)
	}
	mapOff64, _ := coding.U64(foot)
	mapOff := int64(mapOff64)
	if mapOff < 0 || mapOff > size-footerSize {
		return nil, fmt.Errorf("%w: docmap offset %d out of range", ErrCorruptArchive, mapOff)
	}

	// Header: magic, version, codec, dictionary.
	hdrProbe := make([]byte, 4+3+coding.MaxVByteLen64)
	if int64(len(hdrProbe)) > size {
		hdrProbe = hdrProbe[:size]
	}
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, size), hdrProbe); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if string(hdrProbe[:4]) != headerMagic {
		return nil, fmt.Errorf("%w: bad header magic", ErrCorruptArchive)
	}
	if hdrProbe[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptArchive, hdrProbe[4])
	}
	codec, err := rlz.CodecByName(string(hdrProbe[5:7]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptArchive, err)
	}
	dictLen64, k, err := coding.Uvarint64(hdrProbe[7:])
	if err != nil {
		return nil, fmt.Errorf("%w: dictionary length: %v", ErrCorruptArchive, err)
	}
	dictStart := int64(7 + k)
	dictLen := int64(dictLen64)
	if dictLen <= 0 || dictStart+dictLen > mapOff {
		return nil, fmt.Errorf("%w: dictionary extent [%d,%d) outside payload", ErrCorruptArchive, dictStart, dictStart+dictLen)
	}
	dictData := make([]byte, dictLen)
	if _, err := r.ReadAt(dictData, dictStart); err != nil {
		return nil, fmt.Errorf("store: reading dictionary: %w", err)
	}
	// Decoding never needs the suffix array, so the Reader uses a
	// decode-only dictionary and Opens in O(dictionary) time.
	dict, err := rlz.NewDictionaryForDecode(dictData)
	if err != nil {
		return nil, err
	}

	// Document map.
	mapBytes := make([]byte, size-footerSize-mapOff)
	if _, err := r.ReadAt(mapBytes, mapOff); err != nil {
		return nil, fmt.Errorf("store: reading document map: %w", err)
	}
	m, _, err := docmap.Unmarshal(mapBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptArchive, err)
	}
	payloadStart := dictStart + dictLen
	if int64(m.Total()) != mapOff-payloadStart {
		return nil, fmt.Errorf("%w: docmap covers %d bytes, payload is %d", ErrCorruptArchive, m.Total(), mapOff-payloadStart)
	}
	return &Reader{
		r:            r,
		dict:         dict,
		codec:        codec,
		m:            m,
		payloadStart: payloadStart,
		size:         size,
	}, nil
}

// OpenBytes opens an archive held in memory.
func OpenBytes(data []byte) (*Reader, error) {
	return Open(bytes.NewReader(data), int64(len(data)))
}

// OpenFile opens an archive file. Close the Reader to release the file.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	rd, err := Open(f, st.Size())
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	rd.closer = f
	return rd, nil
}

// NumDocs returns the number of documents in the archive.
func (r *Reader) NumDocs() int { return r.m.Len() }

// Codec returns the archive's pair codec.
func (r *Reader) Codec() rlz.PairCodec { return r.codec }

// DictLen returns the dictionary size in bytes.
func (r *Reader) DictLen() int { return r.dict.Len() }

// Size returns the total archive size in bytes.
func (r *Reader) Size() int64 { return r.size }

// Extent returns the absolute archive extent occupied by document id's
// record — the bytes a Get physically touches, which is what the disk
// model charges for.
func (r *Reader) Extent(id int) (off, n int64, err error) {
	o, l, err := r.m.Extent(id)
	if err != nil {
		return 0, 0, err
	}
	return r.payloadStart + int64(o), int64(l), nil
}

// GetAppend retrieves document id, appending its text to dst. In steady
// state an uncached read allocates no decode state: the record is a view
// of the mapping (or a pooled buffer), the factors land in a pooled
// slice, inflate state comes from rlz's pool, and dst grows at most once.
//
//rlz:hotpath
func (r *Reader) GetAppend(dst []byte, id int) ([]byte, error) {
	fp := r.factors.Get()
	factors, err := r.decodeRecord((*fp)[:0], id)
	if err == nil {
		dst, err = r.dict.Decode(dst, factors)
	}
	*fp = factors[:0]
	r.factors.Put(fp)
	return dst, err
}

// slicePool is a Reader's pool of decode buffers: factor slices, and
// record buffers when the archive is not memory-mapped. Its typed Get and
// Put keep the interface conversion of sync.Pool off the hot path.
//
//rlz:pool get=Get put=Put
type slicePool[E any] struct {
	p sync.Pool
}

// Get draws a slice from the pool.
func (p *slicePool[E]) Get() *[]E {
	if sp, ok := p.p.Get().(*[]E); ok {
		return sp
	}
	return new([]E)
}

// Put returns a slice to the pool, dropping its backing array if it
// outgrew maxPooledBytes, as rlz drops outsized inflate buffers: one
// large document must not stay pinned in the pool. A nil sp is ignored.
func (p *slicePool[E]) Put(sp *[]E) {
	if sp == nil {
		return
	}
	if cap(*sp)*int(unsafe.Sizeof(*new(E))) > maxPooledBytes {
		*sp = nil
	}
	p.p.Put(sp)
}

// maxPooledBytes caps the backing array a pooled slice keeps between
// reads.
const maxPooledBytes = 1 << 20

// slicer is the zero-copy capability of a memory-mapped backing store
// (internal/mmapio.Mapping satisfies it); duck-typed so this package
// stays independent of how the caller produced its ReaderAt.
type slicer interface {
	//rlz:view
	Slice(off, n int64) ([]byte, error)
}

// decodeRecord reads document id's record and appends its factors to
// factors. A memory-mapped archive hands the record over as a view of
// the mapping; any other ReaderAt stages it through a pooled buffer. The
// record does not outlive the call: the factors hold no reference to it.
func (r *Reader) decodeRecord(factors []rlz.Factor, id int) ([]rlz.Factor, error) {
	off, n, err := r.Extent(id)
	if err != nil {
		return factors, err
	}
	var rec []byte
	var rp *[]byte // the pooled buffer rec lives in, when not a view
	if sl, ok := r.r.(slicer); ok {
		rec, err = sl.Slice(off, n)
	} else {
		rp = r.recs.Get()
		rec = slices.Grow((*rp)[:0], int(n))[:n]
		*rp = rec
		_, err = r.r.ReadAt(rec, off)
	}
	if err != nil {
		err = fmt.Errorf("store: reading document %d: %w", id, err)
	} else if factors, _, err = r.codec.Decode(factors, rec); err != nil {
		err = fmt.Errorf("store: document %d: %w", id, err)
	}
	r.recs.Put(rp)
	return factors, err
}

// Get retrieves document id.
func (r *Reader) Get(id int) ([]byte, error) {
	return r.GetAppend(nil, id)
}

// Close releases the underlying file if the Reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}
