package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rlz/internal/workload"
)

// errMismatch marks a response whose bytes differ from the generated
// document: a correctness failure, not a transient one.
var errMismatch = errors.New("served bytes differ from the generated document")

// op is one kind of request. do sends request i on connection slot w and
// reads the whole response; it is the timed part. check then verifies
// what do read, untimed, and returns the documents and raw document
// bytes moved.
type op struct {
	do    func(w, i int) error
	check func(w, i int) (docs, bytes int, err error)
}

// tally counts what a load phase attempted, and why operations failed.
type tally struct {
	attempted  int64
	failed     int64
	mismatches int64 // served bytes differed from the generated document
	shed       int64 // refused with 429
	firstErr   error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.shed += o.shed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// verdict is nil when every operation succeeded. Any failure makes the
// run incorrect: a changed byte, an error status or a transport error,
// and a 429 too, which rlzd's default configuration should never send
// to a load of two connections. A failed operation is left out of the
// latency and CPU figures, so letting failures pass would let a change
// that fails fast look faster.
func (t tally) verdict() error {
	if t.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed (%d byte mismatches, %d shed with 429); first: %v",
		t.failed, t.attempted, t.mismatches, t.shed, t.firstErr)
}

// record counts one finished operation, returning whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if errors.Is(err, errMismatch) {
		t.mismatches++
	}
	if errors.Is(err, workload.ErrBackpressure) {
		t.shed++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
	return false
}

// completion is one successful closed-loop operation.
type completion struct {
	end         time.Time
	lat         time.Duration
	docs, bytes int
}

// closedResult is a closed loop's outcome: each connection sends its next
// request only after the previous one completed.
type closedResult struct {
	tally
	done []completion
}

// runClosed drives op on conns connections until stop is closed or next
// reports no more work. next hands out operation indices in order.
func runClosed(conns int, stop <-chan struct{}, next func() (int, bool), o op) closedResult {
	var (
		mu  sync.Mutex
		res closedResult
		wg  sync.WaitGroup
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local closedResult
			for !isClosed(stop) {
				i, ok := next()
				if !ok {
					break
				}
				t0 := time.Now()
				err := o.do(w, i)
				t1 := time.Now()
				docs, n := 0, 0
				if err == nil {
					docs, n, err = o.check(w, i)
				}
				if local.record(err) {
					local.done = append(local.done, completion{end: t1, lat: t1.Sub(t0), docs: docs, bytes: n})
				}
			}
			mu.Lock()
			res.tally.add(local.tally)
			res.done = append(res.done, local.done...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return res
}

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// pacedSample is one successful open-loop request: when it was due, how
// long it took from then, and how late the generator sent it.
type pacedSample struct {
	due       time.Time
	lat, late time.Duration
}

// pacedResult is an open loop's outcome at a fixed arrival rate.
type pacedResult struct {
	tally
	samples []pacedSample
}

// runPaced issues request i at start + i/rate on at most conns
// connections until stop is closed. Each request is timed from its due
// time; when every connection is busy the next request waits, and that
// wait counts against it.
func runPaced(conns int, rate float64, stop <-chan struct{}, o op) pacedResult {
	var (
		mu   sync.Mutex
		res  pacedResult
		wg   sync.WaitGroup
		next atomic.Int64
	)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The thread is never unlocked: it exits with the goroutine
			// instead of returning to the pool with its timer slack.
			runtime.LockOSThread()
			preciseSleeps()
			var local pacedResult
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due, stop)
				if isClosed(stop) {
					break
				}
				sent := time.Now()
				err := o.do(w, i)
				done := time.Now()
				if err == nil {
					_, _, err = o.check(w, i)
				}
				if local.record(err) {
					lat, late := dueLatency(due, sent, done)
					local.samples = append(local.samples, pacedSample{due: due, lat: lat, late: late})
				}
			}
			mu.Lock()
			res.tally.add(local.tally)
			res.samples = append(res.samples, local.samples...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return res
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// preciseSleeps sets the calling thread's timer slack to 1ns, so its
// nanosleeps wake within microseconds of their deadline instead of the
// default 50µs slack. Best effort: on failure sleeps are just less exact.
func preciseSleeps() {
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// maxSleep bounds one nanosleep, so a stopped phase is noticed promptly
// even at a slow arrival rate.
const maxSleep = 50 * time.Millisecond

// waitUntil returns at t or just after, or once stop is closed. It
// sleeps in nanosleep(2), not time.Sleep: the Go runtime's timers wake
// up to a millisecond late on an idle process, and that delay would be
// charged to every paced request.
func waitUntil(t time.Time, stop <-chan struct{}) {
	for d := time.Until(t); d > 0 && !isClosed(stop); d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(min(d, maxSleep)))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// newClient returns the one HTTP client the load comes from, holding at
// most conns connections to rlzd.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}
