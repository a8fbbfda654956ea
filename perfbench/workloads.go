package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rlz/internal/collection"
	"rlz/internal/corpus"
	"rlz/internal/workload"
)

// idStream is how many request ids a read workload draws: more than any
// run can issue at full scale, consumed cyclically.
const idStream = 1 << 18

// profile is the GOV2 stand-in at the scale's document size.
func profile(sc scale) corpus.Profile {
	p := corpus.Gov
	p.AvgDocSize = sc.avgDoc
	return p
}

// generate returns the bodies of one generated crawl slice.
func generate(sc scale, totalBytes int, seed int64) [][]byte {
	c := corpus.Generate(profile(sc), totalBytes, seed)
	out := make([][]byte, c.Len())
	for i, d := range c.Docs {
		out[i] = d.Body
	}
	return out
}

// drifted returns four crawl slices under seeds seed..seed+3: vocabulary,
// hosts and templates shift from round to round.
func drifted(sc scale, roundBytes int, seed int64) [][][]byte {
	rounds := make([][][]byte, 4)
	for r := range rounds {
		rounds[r] = generate(sc, roundBytes, seed+int64(r))
	}
	return rounds
}

func totalBytes(docs [][]byte) int64 {
	var n int64
	for _, d := range docs {
		n += int64(len(d))
	}
	return n
}

// ratio is a/b, or 0 when b is 0 (a phase too short to measure).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// adaptive is rlzd -adapt's compaction configuration.
var adaptive = collection.CompactOptions{Adapt: true}

// statsDoc is the part of rlzd's GET /stats the benchmark reads.
type statsDoc struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Shards      []struct {
		Size int64 `json:"size_bytes"`
	} `json:"shards"`
	Live *struct {
		Segments []struct {
			Size int64 `json:"size_bytes"`
		} `json:"segments"`
		Dicts []struct {
			ID            uint64  `json:"id"`
			Size          int64   `json:"size_bytes"`
			UnusedPercent float64 `json:"unused_percent"`
		} `json:"dicts"`
	} `json:"live"`
}

// storedBytes is the on-disk segment and dictionary bytes (shard files
// for a static archive).
func (s statsDoc) storedBytes() int64 {
	var n int64
	for _, sh := range s.Shards {
		n += sh.Size
	}
	if s.Live != nil {
		for _, seg := range s.Live.Segments {
			n += seg.Size
		}
		for _, d := range s.Live.Dicts {
			n += d.Size
		}
	}
	return n
}

// dictUnusedPct is the newest observed dictionary's unused-region share.
func (s statsDoc) dictUnusedPct() float64 {
	if s.Live == nil {
		return 0
	}
	var best uint64
	pct := 0.0
	for _, d := range s.Live.Dicts {
		if d.UnusedPercent >= 0 && d.ID >= best {
			best, pct = d.ID, d.UnusedPercent
		}
	}
	return pct
}

func (d *daemon) stats(c *http.Client) (statsDoc, error) {
	var s statsDoc
	resp, err := c.Get(d.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// getOp is GET /doc/{id} through workload.HTTPGetter with retries off,
// so a refused request counts as failed. id maps an operation index to
// the document id; want maps a document id to its generated bytes.
func getOp(d *daemon, c *http.Client, id func(i int) int, want func(id int) []byte) op {
	g := &workload.HTTPGetter{BaseURL: d.base, Client: c, MaxRetries: -1}
	bufs := make([][]byte, conns)
	last := make([]int, conns)
	return op{
		do: func(w, i int) error {
			last[w] = id(i)
			var err error
			bufs[w], err = g.GetAppend(bufs[w][:0], last[w])
			return err
		},
		check: func(w, i int) (int, int, error) {
			if !bytes.Equal(bufs[w], want(last[w])) {
				return 0, 0, fmt.Errorf("GET /doc/%d: %w", last[w], errMismatch)
			}
			return 1, len(bufs[w]), nil
		},
	}
}

// counter hands out from, from+1, ... to the connections of a closed
// loop, stopping at limit when limit > 0.
func counter(from, limit int) func() (int, bool) {
	var n atomic.Int64
	n.Store(int64(from))
	return func() (int, bool) {
		i := int(n.Add(1) - 1)
		return i, limit <= 0 || i < limit
	}
}

// closedWindow is the monitoring window of closed loops.
const closedWindow = 500 * time.Millisecond

// loadGCPercent is the load generator's GOGC while it drives load. The
// generated inputs stay live for the whole run; collecting less often
// keeps the generator's garbage collection from taking CPU from rlzd.
// Set-up builds and in-process replays run at Go's default.
const loadGCPercent = 400

// phases runs a read workload's two parts: a closed loop on every
// connection, which gives capacity, then an open loop at the frozen rate.
// The closed loop runs until it has its share of --seconds in
// uncontended windows, for at most half as long again. rlzd runs at
// default priority in the closed loop and at rlzdNice in the open loop.
func phases(cfg config, d *daemon, closedOp, pacedOp op) (closedFigures, pacedResult, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(loadGCPercent))
	total := time.Duration(cfg.seconds * float64(time.Second))
	closedDur := time.Duration(float64(total) * closedShare)
	m := watch(d, closedWindow, int(closedDur/closedWindow), closedDur*3/2)
	closed := runClosed(conns, m.enough, counter(0, 0), closedOp)
	cf := figuresClosed(closed, m.finish())
	if err := d.deprioritize(); err != nil {
		return cf, pacedResult{}, err
	}
	paced := runPaced(conns, cfg.scale.rates[cfg.workload], after(total-closedDur), pacedOp)
	return cf, paced, nil
}

// selfCPUSeconds is the user plus system CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setUp repeats build-then-serve `setups` times (once when traced) and
// records setup_s: the median time from the first ingest or build call
// until rlzd answered its first GET, over the set-ups the hypervisor did
// not steal from. The last daemon is left running.
func setUp(cfg config, res *result, setups int, build func(dir string) error, serve func(dir string) (*daemon, error)) (*daemon, error) {
	if cfg.trace {
		setups = 1
	}
	var all, clean []float64
	var d *daemon
	var prev string
	for k := 0; k < setups; k++ {
		if d != nil {
			d.stop()
			_ = os.RemoveAll(prev)
		}
		dir := filepath.Join(cfg.workdir, "set-"+strconv.Itoa(k))
		s0, t0 := readCPUStat(), time.Now()
		if err := build(dir); err != nil {
			return nil, err
		}
		var err error
		if d, err = serve(dir); err != nil {
			return nil, err
		}
		secs := time.Since(t0).Seconds()
		all = append(all, secs)
		if stealPct(s0, readCPUStat()) <= maxStealPct {
			clean = append(clean, secs)
		}
		prev = dir
	}
	use := clean
	if len(use) == 0 {
		use = all
	}
	res.set("setup_s", median(use), "s")
	res.note("setup_s", median(use), "s")
	res.notef("setup_s is the median of %d of %d set-ups; the others ran with more than %d%% CPU steal", len(use), setups, maxStealPct)
	return d, nil
}

// readyDoc waits for rlzd to serve document id and checks its bytes.
func readyDoc(d *daemon, c *http.Client, id int, want []byte) error {
	body, err := d.ready(c, "/doc/"+strconv.Itoa(id))
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("first GET /doc/%d: %w", id, errMismatch)
	}
	return nil
}

// endToEnd records the end-to-end metrics every workload reports: the
// closed loop's figures, and what rlzd stores and holds in memory.
func endToEnd(res *result, d *daemon, c *http.Client, cf closedFigures, raw int64, buildMBPerCPU float64) error {
	st, err := d.stats(c)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	stored := 100 * float64(st.storedBytes()) / float64(raw)
	res.set("op_p50_us", cf.lat.us(50), "us")
	res.set("cpu_us_per_doc", cf.cpuUsPerDoc, "us")
	res.set("build_mb_per_cpu_s", buildMBPerCPU, "MB/s")
	res.set("stored_pct", stored, "%")
	res.set("peak_rss_mb", rss, "MB")
	res.note("stored_pct", stored, "%")
	res.note("peak_rss_mb", rss, "MB")
	res.notef("closed loop: %d docs in %.2fs of %d/%d windows (n=%d latency samples, p99 %.0fus); CPU steal %% by window %s",
		cf.docs, cf.secs, cf.windows, cf.of, cf.lat.n(), cf.lat.us(99), steals(cf.all))
	if cf.contended {
		res.notef("WARNING: every window had more than %d%% CPU steal, so all count; figures measure a contended machine", maxStealPct)
	}
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		res.notef("rlzd cache hit rate %.1f%% over %d lookups", 100*float64(st.CacheHits)/float64(n), n)
	}
	return nil
}

// pacedReport records an open loop's latencies under the workload's names
// for them, with the generator's lateness, and returns the latencies.
func pacedReport(res *result, paced pacedResult, p50, p99 string) pacedFigures {
	pf := figuresPaced(paced)
	res.note(p50, pf.lat.us(50), "us")
	res.note(p99, pf.lat.us(99), "us")
	res.note("loadgen.late_p99_us", pf.late.us(99), "us")
	res.notef("paced: %.0f/s (n=%d latency samples; generator late p50 %.0fus, p99 %.0fus)",
		pf.rate, pf.lat.n(), pf.late.us(50), pf.late.us(99))
	return pf
}

// steals lists each window's CPU steal share in percent.
func steals(ws []win) string {
	var b strings.Builder
	for i, w := range ws {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", w.stealPct)
	}
	return b.String()
}
