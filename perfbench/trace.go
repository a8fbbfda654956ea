package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rlz/internal/archive"
	"rlz/internal/coding"
	"rlz/internal/collection"
	"rlz/internal/mmapio"
	"rlz/internal/rlz"
	"rlz/internal/serve"
	"rlz/internal/shard"
	"rlz/internal/store"
	"rlz/internal/workload"
)

// The traced run replays a workload's operations at each layer's public
// entry point, one layer at a time, recording one span per call. A
// layer's self time is its mean per-call time minus the next layer's
// mean time on the same inputs. Every uncached layer is replayed twice
// on the same ids and the second pass is measured, so page faults and
// lazy set-up land in the first. The cached layers, rlzd and serve, first
// replay a warm-up stretch of the same id stream from an empty cache, so
// the HTTP and the in-process replay see the same hits, at the
// workload's steady hit rate.

// rlzdCacheDocs is rlzd's default -cache.
const rlzdCacheDocs = 1024

// span is one timed call at one layer.
type span struct {
	layer      string
	op         int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// call times f as one span of layer and returns its duration.
func (t *tracer) call(layer string, op int, f func()) time.Duration {
	s := time.Since(t.epoch)
	f()
	e := time.Since(t.epoch)
	t.spans = append(t.spans, span{layer: layer, op: op, start: s, end: e})
	return e - s
}

// write saves the spans as tab-separated layer, op, start and end in
// nanoseconds.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	b.WriteString("layer\top\tstart_ns\tend_ns\n")
	for _, s := range t.spans {
		fmt.Fprintf(&b, "%s\t%d\t%d\t%d\n", s.layer, s.op, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layers accumulates the per-layer figures of one traced run. Figures of
// layers the workload does not reach stay zero.
type layers struct {
	late, duringCompact, adopted, unused float64

	rlzdGetSelf, serveGetSelf, hitPct   float64
	collectionRouteSelf, shardRouteSelf float64
	leaf                                leafFigures
	coverage, overhead                  float64

	rlzdBatchSelf, serveBatchSelf float64

	rlzdAppendSelf, collectionAppendSelf, walEnqueue, walCommitWait float64
	fsyncsPerAppend, writeBytesPerUserByte                          float64
	sampleS, prepareS, factorizeMB, encodeMB, compactS, workers     float64
}

// leafFigures are the store layer's parts, per document on average.
type leafFigures struct {
	extentNs, readUs, decodeUs, copyUs, factors float64
}

// metrics returns every per-layer metric and copies them into the
// report.
func (l *layers) metrics(res *result) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) {
		out[name] = metric{Value: v, Unit: unit}
		res.note(name, v, unit)
	}
	put("rlzd.get_self_us", l.rlzdGetSelf, "us")
	put("serve.get_self_us", l.serveGetSelf, "us")
	put("serve.cache_hit_pct", l.hitPct, "%")
	put("collection.route_self_us", l.collectionRouteSelf, "us")
	put("docmap.extent_ns", l.leaf.extentNs, "ns")
	put("store.read_us", l.leaf.readUs, "us")
	put("rlz.factor_decode_us", l.leaf.decodeUs, "us")
	put("rlz.dict_copy_us", l.leaf.copyUs, "us")
	put("rlz.factors_per_doc", l.leaf.factors, "count")
	put("rlzd.batch_self_us", l.rlzdBatchSelf, "us")
	put("serve.batch_self_us", l.serveBatchSelf, "us")
	put("shard.route_self_us", l.shardRouteSelf, "us")
	put("rlzd.append_self_us", l.rlzdAppendSelf, "us")
	put("collection.append_self_us", l.collectionAppendSelf, "us")
	put("wal.enqueue_us", l.walEnqueue, "us")
	put("wal.commit_wait_us", l.walCommitWait, "us")
	put("faultfs.fsyncs_per_append", l.fsyncsPerAppend, "count")
	put("faultfs.write_bytes_per_user_byte", l.writeBytesPerUserByte, "B/B")
	put("rlz.sample_s", l.sampleS, "s")
	put("suffix.prepare_s", l.prepareS, "s")
	put("rlz.factorize_mb_per_s", l.factorizeMB, "MB/s")
	put("rlz.encode_mb_per_s", l.encodeMB, "MB/s")
	put("collection.compact_s", l.compactS, "s")
	put("collection.compact_workers", l.workers, "count")
	put("rlz.dicts_adopted", l.adopted, "count")
	put("rlz.dict_unused_pct", l.unused, "%")
	put("collection.get_p99_during_compact_us", l.duringCompact, "us")
	put("loadgen.late_p99_us", l.late, "us")
	put("trace.coverage_pct", l.coverage, "%")
	put("trace.overhead_pct", l.overhead, "%")
	return out
}

// trim is the share of calls dropped from each end before averaging, so
// that a stall of the machine during one call does not move a layer's
// mean; the rest is averaged, so per-call times still add up across the
// cache hits and misses of a mixed layer.
const trim = 0.025

// trimmedUs is the trimmed mean of ds in microseconds.
func trimmedUs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return float64(sum) / float64(len(s)) / 1e3
}

// selfUs is a layer's self time per call in microseconds: the trimmed
// mean, over calls on the same inputs, of the layer's time minus the time
// its child layer spent on that input (zero where the call never reached
// the child). A child that ran in parallel can cover more than its
// parent's interval; the difference is then negative and reported so.
func selfUs(parent, child []time.Duration) float64 {
	diff := make([]time.Duration, len(parent))
	for i := range parent {
		diff[i] = parent[i] - child[i]
	}
	return trimmedUs(diff)
}

// replayHTTPGets sends the warm-up ids then the measured ids serially on
// one connection, verifying every response, and returns the measured
// ids' per-call times.
func replayHTTPGets(d *daemon, c *http.Client, warm, ids []int, want func(int) []byte, t *tally) ([]time.Duration, error) {
	g := &workload.HTTPGetter{BaseURL: d.base, Client: c, MaxRetries: -1}
	var buf []byte
	out := make([]time.Duration, 0, len(ids))
	for pass, list := range [][]int{warm, ids} {
		for _, id := range list {
			t0 := time.Now()
			var err error
			buf, err = g.GetAppend(buf[:0], id)
			el := time.Since(t0)
			if err == nil && !bytes.Equal(buf, want(id)) {
				err = fmt.Errorf("GET /doc/%d: %w", id, errMismatch)
			}
			if !t.record(err) {
				return nil, err
			}
			if pass == 1 {
				out = append(out, el)
			}
		}
	}
	return out, nil
}

// replayHTTPBatches sends the plan's first n batches serially on one
// connection, twice, verifying every response; it returns the second
// pass's times.
func replayHTTPBatches(d *daemon, c *http.Client, plan batchPlan, n int, want func(int) []byte, t *tally) ([]time.Duration, error) {
	var buf []byte
	out := make([]time.Duration, 0, n)
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			t0 := time.Now()
			var err error
			buf, err = postBatch(c, d.base, plan.bodies[k], buf)
			el := time.Since(t0)
			if err == nil {
				_, err = plan.check(k, buf, want)
			}
			if !t.record(err) {
				return nil, err
			}
			if pass == 1 {
				out = append(out, el)
			}
		}
	}
	return out, nil
}

// leafSeg opens one RLZ store file a second time, so its parts can be
// called one by one: the document map, the record read, factor decode
// and dictionary copy.
type leafSeg struct {
	f    *os.File
	m    *mmapio.Mapping
	at   io.ReaderAt
	rd   *store.Reader
	dict *rlz.Dictionary
}

// openLeaf opens path as the serving stack does: memory-mapped for
// collection segments, pread for shard files.
func openLeaf(path string, mapped bool) (*leafSeg, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &leafSeg{f: f, at: f}
	if mapped {
		if m, err := mmapio.Map(f, st.Size()); err == nil {
			l.m, l.at = m, m
		}
	}
	if l.rd, err = store.Open(l.at, st.Size()); err != nil {
		l.close()
		return nil, err
	}
	// The header is magic, version and codec, then the dictionary's
	// length and bytes.
	hdr := make([]byte, 7+coding.MaxVByteLen64)
	if _, err := l.at.ReadAt(hdr, 0); err != nil {
		l.close()
		return nil, err
	}
	n, k, err := coding.Uvarint64(hdr[7:])
	if err != nil {
		l.close()
		return nil, err
	}
	data := make([]byte, n)
	if _, err := l.at.ReadAt(data, int64(7+k)); err != nil {
		l.close()
		return nil, err
	}
	if l.dict, err = rlz.NewDictionaryForDecode(data); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *leafSeg) close() {
	if l.m != nil {
		_ = l.m.Close()
	}
	_ = l.f.Close()
}

// stack is the read path below serve for one archive layout.
type stack struct {
	route string // name of the routing layer
	open  func() (archive.Reader, func(id int) (*leafSeg, int), func(), error)
}

// collectionStack routes through a live collection's segments.
func collectionStack(dir string) stack {
	return stack{route: "collection", open: func() (archive.Reader, func(int) (*leafSeg, int), func(), error) {
		col, err := collection.Open(dir, collection.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		info := col.Info()
		var leaves []*leafSeg
		var starts []int
		next := 0
		closeAll := func() {
			for _, l := range leaves {
				if l != nil {
					l.close()
				}
			}
			_ = col.Close()
		}
		for _, s := range info.Segments {
			var l *leafSeg
			if s.Backend == archive.RLZ {
				if l, err = openLeaf(filepath.Join(dir, s.Path), true); err != nil {
					closeAll()
					return nil, nil, nil, err
				}
			}
			leaves = append(leaves, l)
			starts = append(starts, next)
			next += s.Docs
		}
		locate := func(id int) (*leafSeg, int) {
			i := sort.SearchInts(starts, id+1) - 1
			if i < 0 || id >= next {
				return nil, 0
			}
			return leaves[i], id - starts[i]
		}
		return col, locate, closeAll, nil
	}}
}

// shardStack routes through a static shard set.
func shardStack(dir string) stack {
	return stack{route: "shard", open: func() (archive.Reader, func(int) (*leafSeg, int), func(), error) {
		r, err := archive.Open(dir)
		if err != nil {
			return nil, nil, nil, err
		}
		m, err := shard.ReadManifest(filepath.Join(dir, shard.ManifestName))
		if err != nil {
			_ = r.Close()
			return nil, nil, nil, err
		}
		starts := m.Starts()
		var leaves []*leafSeg
		closeAll := func() {
			for _, l := range leaves {
				l.close()
			}
			_ = r.Close()
		}
		for _, s := range m.Shards {
			l, err := openLeaf(filepath.Join(dir, s.Path), false)
			if err != nil {
				closeAll()
				return nil, nil, nil, err
			}
			leaves = append(leaves, l)
		}
		locate := func(id int) (*leafSeg, int) {
			i := sort.SearchInts(starts, id+1) - 1
			if i < 0 || i >= len(leaves) {
				return nil, 0
			}
			return leaves[i], id - starts[i]
		}
		return r, locate, closeAll, nil
	}}
}

// lowerFigures are the layers below serve, as replayLower measured them.
type lowerFigures struct {
	route      []time.Duration // routing layer, per id
	routeSelf  float64         // us: route minus store, over ids that reach a store file
	storeUs    float64
	leaf       leafFigures
	overhead   float64
	storeCalls int
}

// replayLower replays ids below serve: the routing layer's GetAppend,
// then, on the ids that reach an RLZ store file, the store reader's
// GetAppend and its four parts.
func replayLower(t *tracer, r archive.Reader, locate func(int) (*leafSeg, int), ids []int, want func(int) []byte) (lowerFigures, error) {
	var f lowerFigures
	var buf []byte
	check := func(id int) error {
		if !bytes.Equal(buf, want(id)) {
			return fmt.Errorf("layer replay of id %d: %w", id, errMismatch)
		}
		return nil
	}
	// Routing layer.
	f.route = make([]time.Duration, len(ids))
	mark := len(t.spans)
	for pass := 0; pass < 2; pass++ {
		for i, id := range ids {
			var err error
			d := t.call("route", i, func() { buf, err = r.GetAppend(buf[:0], id) })
			if err == nil {
				err = check(id)
			}
			if err != nil {
				return f, err
			}
			if pass == 1 {
				f.route[i] = d
			}
		}
		if pass == 0 {
			t.spans = t.spans[:mark]
		}
	}
	// Store layer and its parts, on the ids that reach a store file.
	type hit struct {
		pos   int
		seg   *leafSeg
		local int
	}
	var hits []hit
	for i, id := range ids {
		if seg, local := locate(id); seg != nil {
			hits = append(hits, hit{i, seg, local})
		}
	}
	if len(hits) == 0 {
		return f, nil
	}
	// The store layer and its parts are replayed in passes of their own,
	// like the routing layer: interleaving them would leave each call the
	// caches the previous layer's call disturbed.
	store := make([]time.Duration, len(hits))
	mark = len(t.spans)
	for pass := 0; pass < 2; pass++ {
		for k, h := range hits {
			var err error
			d := t.call("store", h.pos, func() { buf, err = h.seg.rd.GetAppend(buf[:0], h.local) })
			if err == nil {
				err = check(ids[h.pos])
			}
			if err != nil {
				return f, err
			}
			store[k] = d
		}
		if pass == 0 {
			t.spans = t.spans[:mark]
		}
	}
	var extent, read, decode, copyT []time.Duration
	var factors int
	mark = len(t.spans)
	for pass := 0; pass < 2; pass++ {
		for _, h := range hits {
			var off, n int64
			var err error
			de := t.call("docmap", h.pos, func() { off, n, err = h.seg.rd.Extent(h.local) })
			if err != nil {
				return f, err
			}
			// Each part allocates as store.Reader.GetAppend does: a fresh
			// record buffer and a fresh factor slice per document.
			var rec []byte
			dr := t.call("read", h.pos, func() {
				rec = make([]byte, n)
				_, err = h.seg.at.ReadAt(rec, off)
			})
			if err != nil {
				return f, err
			}
			var fs []rlz.Factor
			dd := t.call("decode", h.pos, func() { fs, _, err = h.seg.rd.Codec().Decode(nil, rec) })
			if err != nil {
				return f, err
			}
			dc := t.call("copy", h.pos, func() { buf, err = h.seg.dict.Decode(buf[:0], fs) })
			if err == nil {
				err = check(ids[h.pos])
			}
			if err != nil {
				return f, err
			}
			if pass == 1 {
				extent = append(extent, de)
				read = append(read, dr)
				decode = append(decode, dd)
				copyT = append(copyT, dc)
				factors += len(fs)
			}
		}
		if pass == 0 {
			t.spans = t.spans[:mark]
		}
	}
	// The routing layer's self time is small next to the store's, and
	// separate passes drift by as much: here routing and store calls on
	// each id run back to back, alternating which goes first, so drift
	// and cache warmth cancel in the difference.
	route := make([]time.Duration, len(hits))
	store2 := make([]time.Duration, len(hits))
	mark = len(t.spans)
	for pass := 0; pass < 2; pass++ {
		for k, h := range hits {
			id := ids[h.pos]
			var err1, err2 error
			routeCall := func() time.Duration {
				return t.call("route", h.pos, func() { buf, err1 = r.GetAppend(buf[:0], id) })
			}
			storeCall := func() time.Duration {
				return t.call("store", h.pos, func() { buf, err2 = h.seg.rd.GetAppend(buf[:0], h.local) })
			}
			if k%2 == 0 {
				route[k] = routeCall()
				store2[k] = storeCall()
			} else {
				store2[k] = storeCall()
				route[k] = routeCall()
			}
			if err := errors.Join(err1, err2); err != nil {
				return f, err
			}
		}
	}
	t.spans = t.spans[:mark]

	// Tracing overhead: the same store calls as whole loops, with a span
	// each and bare, alternated three times; the fastest of each counts.
	traced, untraced := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for rep := 0; rep < 3; rep++ {
		mark = len(t.spans)
		t0 := time.Now()
		for _, h := range hits {
			t.call("store", h.pos, func() { buf, _ = h.seg.rd.GetAppend(buf[:0], h.local) })
		}
		traced = min(traced, time.Since(t0))
		t.spans = t.spans[:mark]
		t0 = time.Now()
		for _, h := range hits {
			buf, _ = h.seg.rd.GetAppend(buf[:0], h.local)
		}
		untraced = min(untraced, time.Since(t0))
	}
	f.storeCalls = len(hits)
	f.storeUs = trimmedUs(store)
	f.routeSelf = selfUs(route, store2)
	f.leaf = leafFigures{
		extentNs: 1e3 * trimmedUs(extent),
		readUs:   trimmedUs(read),
		decodeUs: trimmedUs(decode),
		copyUs:   trimmedUs(copyT),
		factors:  float64(factors) / float64(len(hits)),
	}
	f.overhead = 100 * (float64(traced) - float64(untraced)) / float64(untraced)
	return f, nil
}

// coverage is the share of the store layer's per-call time its four
// parts account for, in percent.
func (f leafFigures) coverage(storeUs float64) float64 {
	if storeUs == 0 {
		return 0
	}
	return 100 * (f.extentNs/1e3 + f.readUs + f.decodeUs + f.copyUs) / storeUs
}

// traceReads replays GET ids below rlzd: serve with rlzd's cache size,
// its cache filled by the warm-up ids first as rlzd's was; the routing
// layer on the ids serve missed; then the store layer and its parts.
// httpGet holds the HTTP layer's per-call times on the same ids, after
// the same warm-up.
func traceReads(cfg config, l *layers, st stack, warm, ids []int, httpGet []time.Duration, want func(int) []byte, probe int) error {
	r, locate, closeAll, err := st.open()
	if err != nil {
		return err
	}
	defer closeAll()
	t := newTracer()
	srv := serve.New(r, serve.Options{CacheDocs: rlzdCacheDocs})
	var buf []byte
	do := func(id int) error {
		return srv.Do(id, func(doc []byte) error {
			buf = append(buf[:0], doc...)
			return nil
		})
	}
	if probe >= 0 {
		if err := do(probe); err != nil {
			return err
		}
	}
	serveT := make([]time.Duration, len(ids))
	var missed, missedAt []int // ids serve missed, and their positions
	mark := len(t.spans)
	for pass, list := range [][]int{warm, ids} {
		for i, id := range list {
			misses := srv.Stats().CacheMisses
			var err error
			d := t.call("serve", i, func() { err = do(id) })
			if err == nil && !bytes.Equal(buf, want(id)) {
				err = fmt.Errorf("serve replay of id %d: %w", id, errMismatch)
			}
			if err != nil {
				return err
			}
			if pass == 1 {
				serveT[i] = d
				if srv.Stats().CacheMisses > misses {
					missed = append(missed, id)
					missedAt = append(missedAt, i)
				}
			}
		}
		if pass == 0 {
			t.spans = t.spans[:mark]
		}
	}
	lower, err := replayLower(t, r, locate, missed, want)
	if err != nil {
		return err
	}
	child := make([]time.Duration, len(ids))
	for j, i := range missedAt {
		child[i] = lower.route[j]
	}
	n := float64(len(ids))
	l.hitPct = 100 * (n - float64(len(missed))) / n
	l.serveGetSelf = selfUs(serveT, child)
	if httpGet != nil {
		l.rlzdGetSelf = selfUs(httpGet, serveT)
	}
	l.setLower(st.route, lower)
	return writeSpans(cfg, t, "reads")
}

func (l *layers) setLower(route string, f lowerFigures) {
	if route == "shard" {
		l.shardRouteSelf = f.routeSelf
	} else {
		l.collectionRouteSelf = f.routeSelf
	}
	l.leaf = f.leaf
	l.coverage = f.leaf.coverage(f.storeUs)
	l.overhead = f.overhead
}

// traceBatches replays the scan's batches below rlzd: serve.GetBatch
// with rlzd's configuration, then every id of them through the shard
// router, the store layer and its parts.
func traceBatches(cfg config, l *layers, dir string, batches [][]int, httpBatch []time.Duration, want func(int) []byte) error {
	st := shardStack(dir)
	r, locate, closeAll, err := st.open()
	if err != nil {
		return err
	}
	defer closeAll()
	t := newTracer()
	srv := serve.New(r, serve.Options{CacheDocs: rlzdCacheDocs})
	serveT := make([]time.Duration, len(batches))
	var hits, lookups int64
	missFrac := make([]float64, len(batches))
	mark := len(t.spans)
	for pass := 0; pass < 2; pass++ {
		for k, ids := range batches {
			before := srv.Stats()
			var out []serve.Result
			d := t.call("serve.batch", k, func() { out = srv.GetBatch(ids) })
			for i, res := range out {
				if res.Err != nil {
					return res.Err
				}
				if !bytes.Equal(res.Data, want(ids[i])) {
					return fmt.Errorf("serve batch replay of id %d: %w", ids[i], errMismatch)
				}
			}
			if pass == 1 {
				after := srv.Stats()
				h := after.CacheHits - before.CacheHits
				m := after.CacheMisses - before.CacheMisses
				hits += h
				lookups += h + m
				missFrac[k] = float64(m) / float64(len(ids))
				serveT[k] = d
			}
		}
		if pass == 0 {
			t.spans = t.spans[:mark]
		}
	}
	var all []int
	for _, ids := range batches {
		all = append(all, ids...)
	}
	lower, err := replayLower(t, r, locate, all, want)
	if err != nil {
		return err
	}
	// GetBatch fans a batch's misses out over GOMAXPROCS workers; the
	// children's time is taken as their sum spread evenly over those
	// workers, scaled by the batch's miss share.
	child := make([]time.Duration, len(batches))
	workers := float64(runtime.GOMAXPROCS(0))
	pos := 0
	for k, ids := range batches {
		var sum time.Duration
		for range ids {
			sum += lower.route[pos]
			pos++
		}
		child[k] = time.Duration(missFrac[k] * float64(sum) / workers)
	}
	l.serveBatchSelf = selfUs(serveT, child)
	l.rlzdBatchSelf = selfUs(httpBatch, serveT)
	if lookups > 0 {
		l.hitPct = 100 * float64(hits) / float64(lookups)
	}
	l.setLower(st.route, lower)
	return writeSpans(cfg, t, "batches")
}

// writeSpans saves one replay's spans when a spans directory was given.
func writeSpans(cfg config, t *tracer, part string) error {
	if cfg.spansDir == "" {
		return nil
	}
	return t.write(filepath.Join(cfg.spansDir, fmt.Sprintf("%s-%s-seed%d.tsv", cfg.workload, part, cfg.seed)))
}
