package exp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bombdroid/internal/obs"
)

// This file is the evaluation engine's worker pool. Every table,
// figure, and extra fans its independent work items (apps, user
// sessions, fuzzer cells) across up to Scale.Workers goroutines.
//
// Determinism discipline: parallelism must never change a single
// byte of any table. Three rules enforce that:
//
//  1. Every work item derives all of its randomness from a seed keyed
//     to its own index (seed+i*101 for sessions, seedFor(name)+... for
//     apps and cells) — never from a shared RNG consumed in run order.
//  2. Results merge by item index, never by completion order.
//  3. Errors are reported lowest-index-first, so a failing run fails
//     identically at any worker count.
//
// Pool metrics follow the same split the rest of the obs layer uses:
// task and batch counts are deterministic (same work at any worker
// count); task wall latency, live queue depth, worker count, and the
// per-worker utilization profile depend on the scheduler and are
// registered Volatile.

// workerCount resolves a Scale.Workers setting: <= 0 means one worker
// per available CPU, 1 is fully serial, anything else is the bound.
func workerCount(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// poolTaskBucketsNs buckets task wall time from ~1µs to ~4min.
var poolTaskBucketsNs = obs.ExpBuckets(1_000, 8, 9)

// ForIndexed runs fn(i) for every i in [0,n) on up to sc.Workers
// goroutines and returns the n results merged by index (the
// evaluation pool, exported for command-line batch drivers). The
// serial path (workers == 1, or n < 2) does not spawn goroutines at
// all, so Workers: 1 preserves the engine's original single-threaded
// behavior exactly. Work is handed out through an atomic counter;
// which worker executes an item is scheduler-dependent, but per the
// seeding discipline above the item's result is not.
//
// Cancelling ctx stops workers from claiming further items; the call
// then returns the partially filled slice (unclaimed indices hold
// zero values) together with ctx.Err(), so batch drivers can report
// what completed. An item error still returns (nil, err),
// lowest-index-first, exactly as before.
//
// When sc.Obs is set, every batch reports queue depth, task latency,
// and per-worker utilization to it.
func ForIndexed[T any](ctx context.Context, sc Scale, n int, fn func(i int) (T, error)) ([]T, error) {
	sc = sc.withDefaults()
	reg := sc.Obs
	workers := workerCount(sc.Workers)
	if workers > n {
		workers = n
	}
	var depth *obs.Gauge
	var taskNs *obs.Histogram
	if reg != nil {
		reg.Counter("exp_pool_batches_total").Inc()
		reg.Counter("exp_pool_tasks_total").Add(int64(n))
		reg.Gauge("exp_pool_workers_max", obs.Volatile()).SetMax(int64(workers))
		depth = reg.Gauge("exp_pool_queue_depth", obs.Volatile())
		taskNs = reg.Histogram("exp_pool_task_wall_ns", poolTaskBucketsNs, obs.Volatile())
		depth.Add(int64(n))
	}
	runTask := func(worker, i int) (T, error) {
		if reg == nil {
			return fn(i)
		}
		t0 := time.Now()
		v, err := fn(i)
		taskNs.Observe(time.Since(t0).Nanoseconds())
		depth.Add(-1)
		reg.Counter(obs.L("exp_pool_worker_tasks_total", "worker", workerLabel(worker)), obs.Volatile()).Inc()
		return v, err
	}

	out := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := runTask(0, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
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
				out[i], errs[i] = runTask(w, i)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// workerLabel formats small worker indices without fmt (the pool hot
// path should not allocate through Sprintf for a label).
func workerLabel(w int) string {
	if w < 10 {
		return string([]byte{'0' + byte(w)})
	}
	return string([]byte{'0' + byte(w/10%10), '0' + byte(w%10)})
}

// mapApps is the shared scale/pool plumbing every per-app experiment
// goes through: it resolves Scale defaults once, prepares every app in
// sc.Apps (cache-deduplicated, so concurrent tables cost one pipeline
// run per app), and applies fn, returning one result per app in Scale
// order. fn receives the defaulted Scale, so experiment bodies read
// resolved knobs (SessionsPerApp, FuzzMinutes, …) without calling
// withDefaults themselves.
func mapApps[T any](ctx context.Context, sc Scale, fn func(sc Scale, name string, p *PreparedApp) (T, error)) ([]T, error) {
	sc = sc.withDefaults()
	return ForIndexed(ctx, sc, len(sc.Apps), func(i int) (T, error) {
		name := sc.Apps[i]
		p, err := PrepareCtx(ctx, name, sc.ProfileEvents)
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(sc, name, p)
	})
}
