package main

import (
	"fmt"
	"net/http"
	"time"

	"rlz/internal/collection"
	"rlz/internal/workload"
)

// appendChunk is how many documents a set-up ingest call appends at once.
const appendChunk = 256

// buildCollection ingests rounds into a new live collection at dir, one
// adaptive compaction per round, and returns the wall and CPU time spent
// compacting.
func buildCollection(dir string, rounds [][][]byte) (time.Duration, float64, error) {
	if err := collection.Init(dir); err != nil {
		return 0, 0, err
	}
	col, err := collection.Open(dir, collection.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer col.Close()
	var compact time.Duration
	var cpu float64
	next := 0
	for _, docs := range rounds {
		for lo := 0; lo < len(docs); lo += appendChunk {
			ids, err := col.AppendBatch(docs[lo:min(lo+appendChunk, len(docs))])
			if err != nil {
				return 0, 0, err
			}
			for _, id := range ids {
				if id != next {
					return 0, 0, fmt.Errorf("append assigned id %d, want %d", id, next)
				}
				next++
			}
		}
		t0, c0 := time.Now(), selfCPUSeconds()
		if _, err := col.Compact(adaptive); err != nil {
			return 0, 0, err
		}
		compact += time.Since(t0)
		cpu += selfCPUSeconds() - c0
	}
	return compact, cpu, col.Close()
}

// runGetWorkload is hot-zipf-get and cold-uniform-get: GET /doc over a
// live collection built as four drifted rounds, each adaptively compacted.
func runGetWorkload(cfg config) (result, error) {
	var res result
	rounds := drifted(cfg.scale, cfg.scale.roundBytes, cfg.seed)
	var docs [][]byte
	for _, r := range rounds {
		docs = append(docs, r...)
	}
	raw := totalBytes(docs)
	var ids []int
	if cfg.workload == "hot-zipf-get" {
		ids = workload.QueryLog(len(docs), idStream, cfg.seed)
	} else {
		ids = workload.Uniform(len(docs), idStream, cfg.seed)
	}
	c := newClient(conns)
	defer c.CloseIdleConnections()
	var compact time.Duration
	var compactCPU, built float64 // built counts raw MB compacted over every set-up
	var dir string
	d, err := setUp(cfg, &res, cfg.scale.setups,
		func(dir string) error {
			dur, cpu, err := buildCollection(dir, rounds)
			compact += dur
			compactCPU += cpu
			built += float64(raw) / 1e6
			return err
		},
		func(at string) (*daemon, error) {
			dir = at
			return serveReady(cfg, c, at, 0, docs[0])
		})
	if err != nil {
		return res, err
	}
	defer d.stop()
	want := func(id int) []byte { return docs[id] }

	// A traced run replays the id stream's first traceGets ids to fill
	// the cache and measures the next traceGets.
	warm, traced := ids[:traceGets], ids[traceGets:2*traceGets]
	var httpGet []time.Duration
	if cfg.trace {
		if httpGet, err = replayHTTPGets(d, c, warm, traced, want, &res.tally); err != nil {
			return res, err
		}
	}
	from := func(offset int) func(int) int {
		return func(i int) int { return ids[(offset+i)%len(ids)] }
	}
	cf, paced, err := phases(cfg, d, getOp(d, c, from(0), want), getOp(d, c, from(idStream/2), want))
	if err != nil {
		return res, err
	}
	res.tally.add(cf.tally)
	res.tally.add(paced.tally)
	if err := endToEnd(&res, d, c, cf, raw, ratio(built, compactCPU)); err != nil {
		return res, err
	}
	pf := pacedReport(&res, paced, "get_p50_us", "get_p99_us")
	res.note("get_docs_per_s", cf.docsPerS, "1/s")
	res.note("compact_mb_per_s", ratio(built, compact.Seconds()), "MB/s")
	if !cfg.trace {
		return res, nil
	}
	d.stop()
	lr := layers{late: pf.late.us(99)}
	// The set-up's readiness probe fetched document 0 into rlzd's cache.
	if err := traceReads(cfg, &lr, collectionStack(dir), warm, traced, httpGet, want, 0); err != nil {
		return res, err
	}
	res.metrics = lr.metrics(&res)
	return res, nil
}

// serveReady starts rlzd on dir and waits until it serves document id.
func serveReady(cfg config, c *http.Client, dir string, id int, want []byte, extra ...string) (*daemon, error) {
	d, err := startDaemon(cfg.rlzd, dir, extra...)
	if err != nil {
		return nil, err
	}
	if err := readyDoc(d, c, id, want); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}
