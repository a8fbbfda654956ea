package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rlz/internal/collection"
	"rlz/internal/workload"
)

// ingestSetups is how many times ingest-compact sets up; a set-up takes
// milliseconds, so many of them steady the median.
const ingestSetups = 21

// compactCall is one POST /compact: when it ran and what it drained.
type compactCall struct {
	start, end time.Time
	cpu        float64 // rlzd CPU seconds, including paced reads served meanwhile
	raw        int64
	relearned  bool
}

func postCompact(c *http.Client, base string) (compactCall, error) {
	cc := compactCall{start: time.Now()}
	resp, err := c.Post(base+"/compact", "application/json", nil)
	if err != nil {
		return cc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cc, fmt.Errorf("POST /compact: %s", resp.Status)
	}
	var out collection.CompactResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return cc, err
	}
	cc.end = time.Now()
	cc.raw = out.BytesBefore
	cc.relearned = out.Relearned && out.Dict > 1
	return cc, nil
}

// appendFirst waits until rlzd answers, appends doc durably, and waits
// until rlzd serves it back as document 0.
func appendFirst(d *daemon, c *http.Client, doc []byte) error {
	if _, err := d.ready(c, "/stats"); err != nil {
		return err
	}
	g := &workload.HTTPGetter{BaseURL: d.base, Client: c, MaxRetries: -1}
	id, err := g.Append(doc)
	if err != nil {
		return err
	}
	if id != 0 {
		return fmt.Errorf("first append acknowledged id %d, want 0", id)
	}
	return readyDoc(d, c, 0, doc)
}

// after returns a channel closed once d has passed.
func after(d time.Duration) <-chan struct{} {
	c := make(chan struct{})
	time.AfterFunc(d, func() { close(c) })
	return c
}

// ingestLog is what the writer has acknowledged so far: ackedDoc[id] is
// the generated document stored under id. The reader only reads ids
// below acked, whose entries were written before acked was raised.
type ingestLog struct {
	docs     [][]byte
	ackedDoc []int
	acked    atomic.Int64
}

func (l *ingestLog) want(id int) []byte { return l.docs[l.ackedDoc[id]] }

// writer is ingest-compact's writing connection: a closed loop of
// durable appends per round, each round ending in POST /compact.
type writer struct {
	appends  closedResult
	wins     []win // monitoring windows of the append loops only
	compacts []compactCall
	err      error
}

// run appends perRound documents of each pool, or as many as fit in
// limit, then compacts. The first round starts after the documents the
// set-up acknowledged.
func (wr *writer) run(d *daemon, c *http.Client, pools [][][]byte, perRound int, limit time.Duration, ing *ingestLog) {
	g := &workload.HTTPGetter{BaseURL: d.base, Client: c, MaxRetries: -1}
	base := 0
	for round, pool := range pools {
		from := 0
		if round == 0 {
			from = int(ing.acked.Load())
		}
		var lastID int
		appendOp := op{
			do: func(_, i int) error {
				var err error
				lastID, err = g.Append(pool[i])
				return err
			},
			check: func(_, i int) (int, int, error) {
				if want := int(ing.acked.Load()); lastID != want {
					return 0, 0, fmt.Errorf("append acknowledged id %d, want %d", lastID, want)
				}
				ing.ackedDoc[lastID] = base + i
				ing.acked.Store(int64(lastID + 1))
				return 1, len(pool[i]), nil
			},
		}
		m := watch(d, closedWindow, 1<<30, 24*time.Hour)
		r := runClosed(1, after(limit), counter(from, min(perRound, len(pool))), appendOp)
		wr.wins = append(wr.wins, m.finish()...)
		wr.appends.tally.add(r.tally)
		wr.appends.done = append(wr.appends.done, r.done...)
		c0, err := d.cpuSeconds()
		if err != nil {
			wr.err = err
			return
		}
		cc, err := postCompact(c, d.base)
		if err != nil {
			wr.err = err
			return
		}
		c1, err := d.cpuSeconds()
		if err != nil {
			wr.err = err
			return
		}
		cc.cpu = c1 - c0
		wr.compacts = append(wr.compacts, cc)
		base += len(pool)
	}
}

// runIngest is ingest-compact: one connection appends fresh drifted
// documents in four rounds, each ending in POST /compact, while the other
// issues paced GETs over acknowledged ids the whole time.
func runIngest(cfg config) (result, error) {
	var res result
	pools := drifted(cfg.scale, cfg.scale.ingestBytes, cfg.seed)
	var ing ingestLog
	for _, p := range pools {
		ing.docs = append(ing.docs, p...)
	}
	ing.ackedDoc = make([]int, len(ing.docs))
	c := newClient(conns)
	defer c.CloseIdleConnections()
	// A set-up starts rlzd on an empty collection and ends once rlzd
	// answers a GET for the first document of round 1, appended durably.
	var dir string
	d, err := setUp(cfg, &res, ingestSetups,
		func(dir string) error { return collection.Init(dir) },
		func(at string) (*daemon, error) {
			dir = at
			d, err := startDaemon(cfg.rlzd, at, "-adapt")
			if err != nil {
				return nil, err
			}
			if err := appendFirst(d, c, ing.docs[0]); err != nil {
				d.stop()
				return nil, err
			}
			return d, nil
		})
	if err != nil {
		return res, err
	}
	defer d.stop()
	ing.acked.Store(1)
	gc := debug.SetGCPercent(loadGCPercent) // restored after the read-back

	// Rounds are a fixed number of documents, so every run compacts the
	// same input; a round that cannot finish in three quarters of
	// --seconds is cut short.
	var wr writer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wr.run(d, c, pools, cfg.scale.ingestDocs, time.Duration(cfg.seconds*float64(time.Second)*3/4), &ing)
	}()
	ranks := workload.QueryLog(idStream, idStream, cfg.seed)
	reads := runPaced(1, cfg.scale.rates[cfg.workload], stop, getOp(d, c, func(i int) int {
		return ranks[i%len(ranks)] % int(ing.acked.Load())
	}, ing.want))
	wg.Wait()
	if wr.err != nil {
		return res, wr.err
	}
	res.tally.add(wr.appends.tally)
	res.tally.add(reads.tally)

	// Read back every acknowledged id, in passes over all of them until
	// the closed loop has its share of --seconds: the closed loop whose
	// figures this workload reports end to end. Appends are timed too, but
	// a durable append waits on the host's fsync, whose latency varied
	// threefold between runs on the shared machine the benchmark was
	// defined on. rlzd's CPU per append moves with it: the paced reads'
	// CPU and the runtime's spinning while the committer waits are spread
	// over fewer appends when fsync is slow.
	n := int(ing.acked.Load())
	closedDur := time.Duration(cfg.seconds * closedShare * float64(time.Second))
	m := watch(d, closedWindow, int(closedDur/closedWindow), closedDur*3/2)
	var next atomic.Int64
	back := runClosed(conns, nil, func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n || !isClosed(m.enough)
	}, getOp(d, c, func(i int) int { return i % n }, ing.want))
	backFigures := figuresClosed(back, m.finish())
	res.tally.add(back.tally)
	debug.SetGCPercent(gc)
	// The loop handed out 0..n-1 first: with no failure, every
	// acknowledged id came back with status 200 and its bytes.
	if back.failed > 0 || len(back.done) < n {
		return res, fmt.Errorf("reading back %d acknowledged ids: %d reads failed, %d succeeded: %v",
			n, back.failed, len(back.done), back.firstErr)
	}
	res.notef("read back all %d acknowledged ids", n)

	var raw int64
	for id := 0; id < n; id++ {
		raw += int64(len(ing.want(id)))
	}
	var drained int64
	var compactTime time.Duration
	var compactCPU float64
	adopted := 0
	for _, cc := range wr.compacts {
		drained += cc.raw
		compactTime += cc.end.Sub(cc.start)
		compactCPU += cc.cpu
		if cc.relearned {
			adopted++
		}
	}
	if err := endToEnd(&res, d, c, backFigures, raw, ratio(float64(drained)/1e6, compactCPU)); err != nil {
		return res, err
	}
	pf := pacedReport(&res, reads, "get_p50_us", "get_p99_us")
	cf := figuresClosed(wr.appends, wr.wins)
	var during latencies
	for _, s := range reads.samples {
		for _, cc := range wr.compacts {
			if !s.due.Before(cc.start) && s.due.Before(cc.end) {
				during.add(s.lat)
				break
			}
		}
	}
	res.note("readback_docs_per_s", backFigures.docsPerS, "1/s")
	res.note("appends_per_s", cf.docsPerS, "1/s")
	res.note("append_p50_us", cf.lat.us(50), "us")
	res.note("append_p99_us", cf.lat.us(99), "us")
	res.note("rlzd.cpu_us_per_append", cf.cpuUsPerDoc, "us")
	res.note("get_docs_per_s", pf.rate, "1/s")
	res.note("compact_mb_per_s", ratio(float64(drained)/1e6, compactTime.Seconds()), "MB/s")
	res.note("collection.get_p99_during_compact_us", during.us(99), "us")
	res.notef("%d appends, %d paced reads, %d of them during compaction, %d compactions, %d dictionaries adopted",
		len(wr.appends.done), len(reads.samples), during.n(), len(wr.compacts), adopted)
	if !cfg.trace {
		return res, nil
	}
	st, err := d.stats(c)
	if err != nil {
		return res, err
	}
	d.stop()
	lr := layers{
		late:          pf.late.us(99),
		duringCompact: during.us(99),
		adopted:       float64(adopted),
		unused:        st.dictUnusedPct(),
	}
	traceIDs := make([]int, 2*traceGets)
	for i := range traceIDs {
		traceIDs[i] = ranks[i] % n
	}
	warm, traced := traceIDs[:traceGets], traceIDs[traceGets:]
	// A fresh rlzd on the ingested collection, so the HTTP replay and the
	// in-process one both start with an empty cache.
	fresh, err := startDaemon(cfg.rlzd, dir, "-adapt")
	if err != nil {
		return res, err
	}
	defer fresh.stop()
	if _, err := fresh.ready(c, "/stats"); err != nil {
		return res, err
	}
	httpGet, err := replayHTTPGets(fresh, c, warm, traced, ing.want, &res.tally)
	if err != nil {
		return res, err
	}
	fresh.stop()
	if err := traceReads(cfg, &lr, collectionStack(dir), warm, traced, httpGet, ing.want, -1); err != nil {
		return res, err
	}
	if err := traceWrites(cfg, &lr, pools, &res.tally); err != nil {
		return res, err
	}
	res.metrics = lr.metrics(&res)
	return res, nil
}
