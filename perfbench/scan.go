package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"rlz/internal/archive"
	"rlz/internal/shard"
)

// batchSize is the ids per POST /docs in the sequential scan.
const batchSize = 64

// scanShards is how many shards the static archive is built as.
const scanShards = 4

// scanOrder maps each served global id to its generated document under
// the shard set's round-robin routing.
func scanOrder(dir string, n int) ([]int, error) {
	m, err := shard.ReadManifest(filepath.Join(dir, shard.ManifestName))
	if err != nil {
		return nil, err
	}
	starts := m.Starts()
	shards := len(starts) - 1
	order := make([]int, 0, n)
	for s := 0; s < shards; s++ {
		for local := 0; local < starts[s+1]-starts[s]; local++ {
			order = append(order, s+local*shards)
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("shard set holds %d documents, want %d", len(order), n)
	}
	return order, nil
}

// batchDoc is one document of rlzd's POST /docs response, its data left
// as the JSON string literal of the base64 bytes.
type batchDoc struct {
	ID    int             `json:"id"`
	Data  json.RawMessage `json:"data"`
	Error string          `json:"error"`
}

// jsonLiteral is doc as the JSON string literal of its base64 encoding,
// the form POST /docs carries it in.
func jsonLiteral(dst, doc []byte) []byte {
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, doc)
	return append(dst, '"')
}

// expectedBatch is rlzd's POST /docs response for ids, byte for byte as
// encoding/json writes it.
func expectedBatch(ids []int, want func(id int) []byte) []byte {
	b := []byte(`{"docs":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"data":`...)
		b = jsonLiteral(b, want(id))
		b = append(b, '}')
	}
	return append(b, "],\"errors\":0}\n"...)
}

// batchPlan is the sequential scan's requests: 64 consecutive ids each,
// in id order, cycling over the whole archive, with the response each
// should get. Comparing a response with it is a memcmp; decoding every
// batch instead would cost the load generator about a third of the CPU
// rlzd spends encoding it, on the same two CPUs.
type batchPlan struct {
	ids    [][]int
	bodies [][]byte
	resps  [][]byte
	raw    []int // document bytes per batch
}

func newBatchPlan(n int, want func(id int) []byte) batchPlan {
	var p batchPlan
	for lo := 0; lo < n; lo += batchSize {
		ids := make([]int, 0, batchSize)
		raw := 0
		for id := lo; id < min(lo+batchSize, n); id++ {
			ids = append(ids, id)
			raw += len(want(id))
		}
		body, _ := json.Marshal(map[string][]int{"ids": ids}) // a map of ints always encodes
		p.ids = append(p.ids, ids)
		p.bodies = append(p.bodies, body)
		p.resps = append(p.resps, expectedBatch(ids, want))
		p.raw = append(p.raw, raw)
	}
	return p
}

// check verifies the response to batch k. A response that is not the
// expected bytes may still be correct in another JSON layout, so it is
// decoded and compared document by document before it counts as wrong.
func (p batchPlan) check(k int, body []byte, want func(id int) []byte) (int, error) {
	if bytes.Equal(body, p.resps[k]) {
		return p.raw[k], nil
	}
	return checkBatch(body, p.ids[k], want)
}

// postBatch sends one POST /docs and returns the raw response body,
// reusing dst.
func postBatch(c *http.Client, base string, body []byte, dst []byte) ([]byte, error) {
	resp, err := c.Post(base+"/docs", "application/json", bytes.NewReader(body))
	if err != nil {
		return dst, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(dst[:0])
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return dst, err
	}
	if resp.StatusCode != http.StatusOK {
		return dst, fmt.Errorf("POST /docs: %s", resp.Status)
	}
	return buf.Bytes(), nil
}

// checkBatch decodes a POST /docs response and compares every document,
// returning the document bytes it carried.
func checkBatch(body []byte, ids []int, want func(id int) []byte) (int, error) {
	var resp struct {
		Docs   []batchDoc `json:"docs"`
		Errors int        `json:"errors"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("POST /docs response: %w", err)
	}
	if resp.Errors != 0 || len(resp.Docs) != len(ids) {
		return 0, fmt.Errorf("POST /docs: %d errors, %d of %d documents", resp.Errors, len(resp.Docs), len(ids))
	}
	n := 0
	var lit []byte
	for i, doc := range resp.Docs {
		lit = jsonLiteral(lit[:0], want(ids[i]))
		if doc.ID != ids[i] || !bytes.Equal(doc.Data, lit) {
			return 0, fmt.Errorf("POST /docs id %d: %w", ids[i], errMismatch)
		}
		n += len(want(ids[i]))
	}
	return n, nil
}

// batchOp is the scan's POST /docs of batch i of plan.
func batchOp(d *daemon, c *http.Client, plan batchPlan, want func(id int) []byte) op {
	bufs := make([][]byte, conns)
	return op{
		do: func(w, i int) error {
			var err error
			bufs[w], err = postBatch(c, d.base, plan.bodies[i%len(plan.ids)], bufs[w])
			return err
		},
		check: func(w, i int) (int, int, error) {
			k := i % len(plan.ids)
			n, err := plan.check(k, bufs[w], want)
			return len(plan.ids[k]), n, err
		},
	}
}

// runScan is shard-seq-scan: full passes in id order, 64-id batches, over
// a static RLZ archive built as four shards.
func runScan(cfg config) (result, error) {
	var res result
	docs := generate(cfg.scale, cfg.scale.scanBytes, cfg.seed)
	raw := totalBytes(docs)
	c := newClient(conns)
	defer c.CloseIdleConnections()
	var build time.Duration
	var buildCPU, built float64
	var order []int
	var dir string
	d, err := setUp(cfg, &res, cfg.scale.setups,
		func(dir string) error {
			t0, c0 := time.Now(), selfCPUSeconds()
			dict, _, err := archive.SampleDict(func() (archive.DocSource, error) {
				return archive.FromBodies(docs), nil
			}, 0, 0)
			if err != nil {
				return err
			}
			_, err = shard.Create(dir, archive.FromBodies(docs), shard.Options{
				Shards:  scanShards,
				Archive: archive.Options{Dict: dict},
			})
			build += time.Since(t0)
			buildCPU += selfCPUSeconds() - c0
			built += float64(raw) / 1e6
			return err
		},
		func(at string) (*daemon, error) {
			dir = at
			var err error
			if order, err = scanOrder(at, len(docs)); err != nil {
				return nil, err
			}
			return serveReady(cfg, c, at, 0, docs[order[0]])
		})
	if err != nil {
		return res, err
	}
	defer d.stop()
	want := func(id int) []byte { return docs[order[id]] }
	plan := newBatchPlan(len(docs), want)
	traced := plan.ids[:min(cfg.scale.traceBatches, len(plan.ids))]

	var httpBatch []time.Duration
	if cfg.trace {
		if httpBatch, err = replayHTTPBatches(d, c, plan, len(traced), want, &res.tally); err != nil {
			return res, err
		}
	}
	cf, paced, err := phases(cfg, d, batchOp(d, c, plan, want), batchOp(d, c, plan, want))
	if err != nil {
		return res, err
	}
	res.tally.add(cf.tally)
	res.tally.add(paced.tally)
	if err := endToEnd(&res, d, c, cf, raw, ratio(built, buildCPU)); err != nil {
		return res, err
	}
	pf := pacedReport(&res, paced, "batch_p50_us", "batch_p99_us")
	res.note("scan_mb_per_s", cf.mbPerS, "MB/s")
	res.note("get_docs_per_s", cf.docsPerS, "1/s")
	res.note("build_mb_per_s", ratio(built, build.Seconds()), "MB/s")
	res.notef("build figures time dictionary sampling plus shard.Create")
	if !cfg.trace {
		return res, nil
	}
	d.stop()
	lr := layers{late: pf.late.us(99)}
	if err := traceBatches(cfg, &lr, dir, traced, httpBatch, want); err != nil {
		return res, err
	}
	res.metrics = lr.metrics(&res)
	return res, nil
}
