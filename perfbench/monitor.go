package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxStealPct is the most CPU time, as a share of the machine's, that the
// hypervisor may give other guests during a window for the window to
// count. On a shared 2-vCPU guest, windows above it measured the
// neighbours, not rlzd: throughput there drops by up to half and an open
// loop falls behind its schedule.
const maxStealPct = 5

// win is one monitoring window.
type win struct {
	from, to time.Time
	stealPct float64
	rlzdCPU  float64 // rlzd CPU seconds in the window; 0 without a daemon
}

func (w win) clean() bool { return w.stealPct <= maxStealPct }

// monitor samples the machine's CPU counters and rlzd's CPU time every
// interval while a phase runs. It closes enough once want clean windows
// have been seen, or once limit has passed, whichever is first: a phase
// runs until it has measured its nominal time on an uncontended machine,
// for at most limit.
type monitor struct {
	d        *daemon
	interval time.Duration
	enough   chan struct{}
	stop     chan struct{}
	done     chan struct{}

	mu   sync.Mutex
	at   []time.Time
	cpu  []cpuStat
	rlzd []float64
}

func watch(d *daemon, interval time.Duration, want int, limit time.Duration) *monitor {
	m := &monitor{d: d, interval: interval, enough: make(chan struct{}), stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	start := time.Now()
	go func() {
		defer close(m.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		signalled := false
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
			m.sample()
			if !signalled && (m.cleanCount() >= want || time.Since(start) >= limit) {
				close(m.enough)
				signalled = true
			}
		}
	}()
	return m
}

func (m *monitor) sample() {
	st := readCPUStat()
	var cpu float64
	if m.d != nil {
		cpu, _ = m.d.cpuSeconds() // a failed read shows as zero CPU in one window
	}
	m.mu.Lock()
	m.at = append(m.at, time.Now())
	m.cpu = append(m.cpu, st)
	m.rlzd = append(m.rlzd, cpu)
	m.mu.Unlock()
}

func (m *monitor) windows() []win {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := make([]win, 0, len(m.at))
	for k := 1; k < len(m.at); k++ {
		ws = append(ws, win{
			from: m.at[k-1], to: m.at[k],
			stealPct: stealPct(m.cpu[k-1], m.cpu[k]),
			rlzdCPU:  m.rlzd[k] - m.rlzd[k-1],
		})
	}
	return ws
}

func (m *monitor) cleanCount() int {
	n := 0
	for _, w := range m.windows() {
		if w.clean() {
			n++
		}
	}
	return n
}

// finish stops sampling and returns the windows, the last one closed by
// a final sample unless it would be under half an interval long: too
// short for its steal share to mean anything.
func (m *monitor) finish() []win {
	close(m.stop)
	<-m.done
	m.mu.Lock()
	last := m.at[len(m.at)-1]
	m.mu.Unlock()
	if time.Since(last) >= m.interval/2 {
		m.sample()
	}
	return m.windows()
}

// counted returns the windows whose figures count: the clean ones, or
// every window when none was clean, in which case contended is true.
func counted(ws []win) (use []win, contended bool) {
	for _, w := range ws {
		if w.clean() {
			use = append(use, w)
		}
	}
	if len(use) == 0 {
		return ws, len(ws) > 0
	}
	return use, false
}

// windowOf returns the index of the window holding t, or -1.
func windowOf(ws []win, t time.Time) int {
	k := sort.Search(len(ws), func(i int) bool { return ws[i].to.After(t) })
	if k < len(ws) && !t.Before(ws[k].from) {
		return k
	}
	return -1
}

// closedFigures are a closed loop's figures over the counted windows.
type closedFigures struct {
	closedResult
	all              []win
	docsPerS, mbPerS float64 // medians over windows
	lat              latencies
	cpuUsPerDoc      float64
	docs             int64
	secs             float64
	windows, of      int
	contended        bool
}

func figuresClosed(r closedResult, ws []win) closedFigures {
	use, contended := counted(ws)
	f := closedFigures{closedResult: r, all: ws, windows: len(use), of: len(ws), contended: contended}
	docs := make([]float64, len(use))
	mb := make([]float64, len(use))
	for _, c := range r.done {
		k := windowOf(use, c.end)
		if k < 0 {
			continue
		}
		docs[k] += float64(c.docs)
		mb[k] += float64(c.bytes) / 1e6
		f.lat.add(c.lat)
		f.docs += int64(c.docs)
	}
	var cpu float64
	for k, w := range use {
		d := w.to.Sub(w.from).Seconds()
		docs[k] /= d
		mb[k] /= d
		cpu += w.rlzdCPU
		f.secs += d
	}
	f.docsPerS, f.mbPerS = median(docs), median(mb)
	if f.docs > 0 {
		f.cpuUsPerDoc = 1e6 * cpu / float64(f.docs)
	}
	return f
}

// pacedFigures are an open loop's latencies, each sample timed from its
// due time. They are not filtered by CPU steal: an open loop that fell
// behind during a stall must answer for the requests that waited.
type pacedFigures struct {
	lat, late latencies
	rate      float64
}

func figuresPaced(r pacedResult) pacedFigures {
	var f pacedFigures
	var first, last time.Time
	for i, s := range r.samples {
		f.lat.add(s.lat)
		f.late.add(s.late)
		if i == 0 || s.due.Before(first) {
			first = s.due
		}
		if s.due.After(last) {
			last = s.due
		}
	}
	if secs := last.Sub(first).Seconds(); secs > 0 {
		f.rate = float64(f.lat.n()-1) / secs
	}
	return f
}

// cpuStat is a snapshot of the machine-wide CPU time counters of
// /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal float64
}

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuStat{}
		}
		if i < 8 { // guest time is already counted in user time
			st.total += x
		}
		if i == 7 {
			st.steal = x
		}
	}
	return st
}

// stealPct is the share of the machine's CPU time the hypervisor gave to
// other guests between two snapshots: high values mean the figures of
// that interval measure a contended machine.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}
