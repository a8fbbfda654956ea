package main

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"rlz/internal/workload"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestPercentileNearestRank(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- { // added out of order: us sorts
		l.add(us(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100},
	} {
		if got := l.us(c.q); got != c.want {
			t.Errorf("p%v of 1..100us = %v, want %v", c.q, got, c.want)
		}
	}
	// Nearest rank never interpolates: with 10 samples p99 is the largest.
	var ten latencies
	for i := 1; i <= 10; i++ {
		ten.add(us(i * 10))
	}
	if got := ten.us(99); got != 100 {
		t.Errorf("p99 of 10 samples = %v, want the maximum 100", got)
	}
	if got := ten.us(50); got != 50 {
		t.Errorf("p50 of 10 samples = %v, want 50", got)
	}
	var empty latencies
	if got := empty.us(99); got != 0 {
		t.Errorf("p99 of no samples = %v, want 0", got)
	}
}

func TestPercentileAfterMerge(t *testing.T) {
	var a, b latencies
	a.add(us(3))
	a.add(us(1))
	_ = a.us(50) // sorts a
	b.add(us(2))
	a.merge(&b)
	if got := a.us(100); got != 3 {
		t.Errorf("max after merge = %v, want 3", got)
	}
	if got := a.us(50); got != 2 {
		t.Errorf("p50 after merge = %v, want 2 (merge must resort)", got)
	}
}

func TestDueLatency(t *testing.T) {
	due := time.Unix(100, 0)
	// Sent on time: latency is the service time, nothing late.
	lat, late := dueLatency(due, due, due.Add(us(250)))
	if lat != us(250) || late != 0 {
		t.Errorf("on time: lat %v late %v, want 250us and 0", lat, late)
	}
	// Sent 3ms late because both connections were busy: the wait counts.
	lat, late = dueLatency(due, due.Add(3*time.Millisecond), due.Add(3*time.Millisecond+us(250)))
	if lat != 3*time.Millisecond+us(250) || late != 3*time.Millisecond {
		t.Errorf("late: lat %v late %v, want 3.25ms and 3ms", lat, late)
	}
	// A wake-up a hair early is not negative lateness.
	_, late = dueLatency(due, due.Add(-us(1)), due.Add(us(100)))
	if late != 0 {
		t.Errorf("early send: late %v, want 0", late)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestFiguresClosedCountsOnlyUncontendedWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sec := func(x float64) time.Time { return t0.Add(time.Duration(x * float64(time.Second))) }
	ws := []win{
		{from: sec(0), to: sec(1), stealPct: 1, rlzdCPU: 0.5},
		{from: sec(1), to: sec(2), stealPct: 40, rlzdCPU: 0.1}, // contended: ignored
		{from: sec(2), to: sec(3), stealPct: 0, rlzdCPU: 0.7},
		{from: sec(3), to: sec(4), stealPct: 2, rlzdCPU: 0.6},
	}
	var r closedResult
	add := func(at float64, n int, lat time.Duration) {
		for i := 0; i < n; i++ {
			r.done = append(r.done, completion{end: sec(at + float64(i)/float64(n+1)), lat: lat, docs: 1, bytes: 1000})
		}
	}
	add(0, 100, us(100))
	add(1, 10, us(5000))
	add(2, 300, us(200))
	add(3, 200, us(300))
	f := figuresClosed(r, ws)
	if f.windows != 3 || f.of != 4 || f.contended {
		t.Fatalf("windows %d of %d (contended %v), want 3 of 4", f.windows, f.of, f.contended)
	}
	if f.docsPerS != 200 {
		t.Errorf("median window rate = %v, want 200", f.docsPerS)
	}
	if f.docs != 600 || f.lat.n() != 600 {
		t.Errorf("counted %d docs and %d latencies, want 600 each", f.docs, f.lat.n())
	}
	if got := f.lat.us(99); got != 300 {
		t.Errorf("p99 = %v, want 300 (the contended window's 5ms samples excluded)", got)
	}
	if want := 1e6 * 1.8 / 600; math.Abs(f.cpuUsPerDoc-want) > 1e-9 {
		t.Errorf("cpu per doc = %v, want %v", f.cpuUsPerDoc, want)
	}

	// With every window contended, all count and the figures say so.
	for i := range ws {
		ws[i].stealPct = 50
	}
	if f := figuresClosed(r, ws); !f.contended || f.windows != 4 || f.docs != 610 {
		t.Errorf("all contended: windows %d contended %v docs %d, want 4, true, 610", f.windows, f.contended, f.docs)
	}
}

func TestFiguresPacedKeepsEveryRequest(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var r pacedResult
	// 201 requests due every 10ms; the last 10 waited out a 1s stall,
	// and an open loop's tail must show it.
	for i := 0; i <= 200; i++ {
		lat := us(100)
		if i > 190 {
			lat = time.Second
		}
		r.samples = append(r.samples, pacedSample{due: t0.Add(time.Duration(i) * 10 * time.Millisecond), lat: lat, late: us(i % 7)})
	}
	f := figuresPaced(r)
	if f.lat.n() != 201 || f.lat.us(50) != 100 || f.lat.us(99) != 1e6 || f.late.us(100) != 6 {
		t.Errorf("n %d p50 %v p99 %v late max %v, want 201, 100us, 1s, 6us", f.lat.n(), f.lat.us(50), f.lat.us(99), f.late.us(100))
	}
	if math.Abs(f.rate-100) > 1e-9 {
		t.Errorf("rate = %v, want 100/s", f.rate)
	}
}

func TestVerdictFailsOnAnyFailure(t *testing.T) {
	var ok tally
	ok.record(nil)
	if err := ok.verdict(); err != nil {
		t.Fatalf("verdict of a clean tally = %v", err)
	}
	for _, err := range []error{
		fmt.Errorf("GET /doc/3: %w", errMismatch),
		errors.New("workload: GET /doc/3: 404 Not Found"),
		fmt.Errorf("POST /append: %w", workload.ErrBackpressure),
	} {
		var tl tally
		tl.record(nil)
		tl.record(err)
		if tl.verdict() == nil {
			t.Errorf("verdict after %q = nil, want a failure", err)
		}
	}
	var shed tally
	shed.record(fmt.Errorf("POST /append: %w", workload.ErrBackpressure))
	if shed.shed != 1 || shed.mismatches != 0 {
		t.Errorf("a 429 counted as shed %d, mismatches %d; want 1, 0", shed.shed, shed.mismatches)
	}
}
