package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is the generator's record of one open-loop request.
type request struct {
	due, sent, done time.Time
	err             error
}

// latencyMs is the request's latency counted from when it was due, so
// a stall also charges the wait it imposes on the requests behind it.
func (r request) latencyMs() float64 { return msBetween(r.due, r.done) }

// lateMs is how far behind schedule the generator sent the request.
func (r request) lateMs() float64 { return msBetween(r.due, r.sent) }

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// openLoop sends n requests on a fixed schedule: request i is due at
// start + i/rate regardless of how earlier ones fared. workers
// goroutines take requests in order and call do(worker, i, send); do
// builds the request, calls send — which waits for the due time and
// returns it — and then makes the call. A request whose worker is
// still busy when it falls due is sent late, and that wait counts in
// its latency. The schedule does not depend on how fast the system
// answers, so the same n, rate and inputs always send the same
// requests. Cancelling ctx stops workers taking further requests;
// those keep a zero done.
func openLoop(ctx context.Context, n int, rate float64, workers int,
	do func(worker, i int, send func() time.Time) error) (start time.Time, reqs []request) {
	reqs = make([]request, n)
	start = time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r := &reqs[i]
				r.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				r.err = do(w, i, func() time.Time {
					pause(time.Until(r.due))
					r.sent = time.Now()
					return r.due
				})
				r.done = time.Now()
			}
		}(w)
	}
	wg.Wait()
	return start, reqs
}

// pause blocks the calling thread for d. It sleeps in nanosleep(2)
// rather than time.Sleep: the Go scheduler rounds sub-millisecond
// sleeps up to about a millisecond when the process is idle, which at
// thousands of requests per second would send most requests that late
// and make the generator, not the system, set their latency.
func pause(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoopStats summarizes an open-loop phase: the indices of the
// requests that succeeded and were due after the warm-up interval
// (those whose latencies count), how many requests failed, and the
// share of the counted ones sent more than a millisecond late.
func openLoopStats(start time.Time, reqs []request, warm time.Duration) (counted []int, failed int, latePct float64) {
	late := 0
	for i, r := range reqs {
		if r.err != nil || r.done.IsZero() {
			failed++
			continue
		}
		if r.due.Sub(start) < warm {
			continue
		}
		counted = append(counted, i)
		if r.lateMs() > 1 {
			late++
		}
	}
	if len(counted) > 0 {
		latePct = 100 * float64(late) / float64(len(counted))
	}
	return counted, failed, latePct
}

// closedLoop runs do(worker, i) for i in [0, n) on workers goroutines,
// each taking the next index as soon as its previous call returns. It
// returns the wall time and the error of the lowest failed index;
// callers that tolerate failures count them in do and return nil.
func closedLoop(ctx context.Context, n, workers int, do func(worker, i int) error) (time.Duration, error) {
	start := time.Now()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = do(w, i)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return wall, err
	}
	for _, err := range errs {
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}
