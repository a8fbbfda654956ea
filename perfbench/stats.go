package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// samples: the smallest sample with at least q% of all samples at or
// below it. samples must be sorted ascending; an empty slice gives 0.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencies collects raw per-operation samples; percentiles are computed
// exactly from them, never from histogram buckets.
type latencies struct {
	s      []time.Duration
	sorted bool
}

func (l *latencies) add(d time.Duration) {
	l.s = append(l.s, d)
	l.sorted = false
}

func (l *latencies) merge(o *latencies) {
	l.s = append(l.s, o.s...)
	l.sorted = false
}

func (l *latencies) n() int { return len(l.s) }

// us returns the q-th percentile in microseconds.
func (l *latencies) us(q float64) float64 {
	if !l.sorted {
		sort.Slice(l.s, func(i, j int) bool { return l.s[i] < l.s[j] })
		l.sorted = true
	}
	return float64(percentile(l.s, q)) / 1e3
}

// dueLatency is an open-loop request's latency: measured from when the
// request was due to be sent, not from when it was sent, so a stall that
// delays later requests is charged to them too. late is how far behind
// its schedule the generator issued it (never negative).
func dueLatency(due, sent, done time.Time) (lat, late time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

// median returns the median of xs (the mean of the middle pair for an
// even count); it reorders xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
