package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/faultfs"
	"rlz/internal/rlz"
	"rlz/internal/wal"
	"rlz/internal/workload"
)

// writeReplay is the traced write path's input: the first
// scale.traceAppends documents of each ingest round. It depends only on
// the seed, so the counted figures repeat exactly.
func writeReplay(cfg config, pools [][][]byte) [][][]byte {
	rounds := make([][][]byte, len(pools))
	for r, p := range pools {
		rounds[r] = p[:min(cfg.scale.traceAppends, len(p))]
	}
	return rounds
}

// traceWrites replays the ingest workload's writes below the load
// generator, one layer at a time, each on a fresh collection: HTTP
// appends to rlzd, collection.Append over a counting filesystem, and
// a standalone WAL fed the same documents; then the compaction stages
// on each round's documents.
func traceWrites(cfg config, l *layers, pools [][][]byte, tl *tally) error {
	rounds := writeReplay(cfg, pools)
	t := newTracer()

	httpAppends, err := replayHTTPAppends(cfg, rounds, tl)
	if err != nil {
		return err
	}

	// collection.Append through a counting filesystem, single client.
	dir := filepath.Join(cfg.workdir, "trace-collection")
	if err := collection.Init(dir); err != nil {
		return err
	}
	cfs := newCountingFS(faultfs.OS)
	col, err := collection.Open(dir, collection.Options{FS: cfs})
	if err != nil {
		return err
	}
	defer col.Close()
	var colAppend []time.Duration
	var compactSum time.Duration
	var userBytes, appendSyncs int64
	seq := 0
	for _, docs := range rounds {
		for _, doc := range docs {
			_, syncs0 := cfs.snapshot()
			var id int
			d := t.call("collection.append", seq, func() { id, err = col.Append(doc) })
			if err != nil {
				return err
			}
			if id != seq {
				return fmt.Errorf("collection replay: append assigned id %d, want %d", id, seq)
			}
			_, syncs1 := cfs.snapshot()
			appendSyncs += syncs1 - syncs0
			colAppend = append(colAppend, d)
			userBytes += int64(len(doc))
			seq++
		}
		d := t.call("collection.compact", seq, func() { _, err = col.Compact(adaptive) })
		if err != nil {
			return err
		}
		compactSum += d
	}
	written, _ := cfs.snapshot()
	if err := col.Close(); err != nil {
		return err
	}
	l.fsyncsPerAppend = float64(appendSyncs) / float64(len(colAppend))
	l.writeBytesPerUserByte = float64(written) / float64(userBytes)
	l.compactS = compactSum.Seconds() / float64(len(rounds))
	l.workers = float64(runtime.GOMAXPROCS(0))

	// A standalone WAL fed the same document sizes.
	log, _, err := wal.Open(filepath.Join(cfg.workdir, "trace-"+wal.FileName), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	var enqueue, walTotal []time.Duration
	seq = 0
	for _, docs := range rounds {
		for _, doc := range docs {
			var wait func() error
			de := t.call("wal.enqueue", seq, func() { wait, err = log.Enqueue(uint64(seq+1), doc) })
			if err != nil {
				return err
			}
			dw := t.call("wal.commit_wait", seq, func() { err = wait() })
			if err != nil {
				return err
			}
			enqueue = append(enqueue, de)
			walTotal = append(walTotal, de+dw)
			seq++
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	l.walEnqueue = trimmedUs(enqueue)
	l.walCommitWait = selfUs(walTotal, enqueue)
	l.collectionAppendSelf = selfUs(colAppend, walTotal)
	l.rlzdAppendSelf = selfUs(httpAppends, colAppend)

	if err := compactionStages(l, rounds, t); err != nil {
		return err
	}
	return writeSpans(cfg, t, "writes")
}

// replayHTTPAppends appends the rounds serially to a fresh rlzd, each
// round ending in POST /compact, and returns every append's time.
func replayHTTPAppends(cfg config, rounds [][][]byte, tl *tally) ([]time.Duration, error) {
	dir := filepath.Join(cfg.workdir, "trace-http")
	if err := collection.Init(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.rlzd, dir, "-adapt")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := &http.Client{Timeout: time.Minute}
	defer c.CloseIdleConnections()
	if _, err := d.ready(c, "/stats"); err != nil {
		return nil, err
	}
	g := &workload.HTTPGetter{BaseURL: d.base, Client: c, MaxRetries: -1}
	var out []time.Duration
	next := 0
	for _, docs := range rounds {
		for _, doc := range docs {
			t0 := time.Now()
			id, err := g.Append(doc)
			el := time.Since(t0)
			if err == nil && id != next {
				err = fmt.Errorf("append acknowledged id %d, want %d", id, next)
			}
			if !tl.record(err) {
				return nil, err
			}
			out = append(out, el)
			next++
		}
		if _, err := postCompact(c, d.base); err != nil {
			return nil, fmt.Errorf("compaction after %s appends: %w", strconv.Itoa(next), err)
		}
	}
	return out, nil
}

// compactionStages times a compaction's stages on each round's documents,
// one goroutine each: even sampling of a dictionary at the default
// budget, preparing it for factorization (suffix array and jump table),
// factorizing every document, and encoding the factors.
func compactionStages(l *layers, rounds [][][]byte, t *tracer) error {
	var sample, prepare, factorize, encode time.Duration
	var raw int64
	var fs []rlz.Factor
	var enc []byte
	for r, docs := range rounds {
		var dict []byte
		var err error
		sample += t.call("rlz.sample", r, func() {
			dict, _, err = archive.SampleDict(func() (archive.DocSource, error) { return archive.FromBodies(docs), nil }, 0, 0)
		})
		if err != nil {
			return err
		}
		var fz *rlz.Factorizer
		prepare += t.call("suffix.prepare", r, func() {
			var d *rlz.Dictionary
			if d, err = rlz.NewDictionary(dict); err != nil {
				return
			}
			fz = rlz.NewFactorizer(d, rlz.FactorizerOptions{})
			fs = fz.Factorize(dict[:min(64, len(dict))], fs[:0]) // builds the jump table
		})
		if err != nil {
			return err
		}
		factors := make([][]rlz.Factor, len(docs))
		factorize += t.call("rlz.factorize", r, func() {
			for i, doc := range docs {
				factors[i] = fz.Factorize(doc, nil)
			}
		})
		encode += t.call("rlz.encode", r, func() {
			for _, f := range factors {
				enc = rlz.CodecZV.Encode(enc[:0], f)
			}
		})
		raw += totalBytes(docs)
	}
	n := float64(len(rounds))
	l.sampleS = sample.Seconds() / n
	l.prepareS = prepare.Seconds() / n
	l.factorizeMB = float64(raw) / 1e6 / factorize.Seconds()
	l.encodeMB = float64(raw) / 1e6 / encode.Seconds()
	return nil
}
