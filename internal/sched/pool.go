// Package sched executes BarrierPoint studies concurrently.
//
// A study decomposes into independent units — the jittered discovery runs
// behind one canonical baseline run, the per-variant native collections,
// and the per-set validations. The scheduler fans those units out across
// a bounded worker pool with context cancellation, memoises expensive
// intermediates through internal/resultcache, and assembles results in
// deterministic unit order: the same request produces a byte-identical
// core.StudyResult whether it runs on one worker or many.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"barrierpoint/internal/resultcache"
)

// Options configure study execution.
type Options struct {
	// Workers bounds the number of units in flight at once; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoises discovery baselines, barrier point sets, collections
	// and whole studies across Run calls. Nil disables caching.
	Cache *resultcache.Cache
	// Executor resolves the study's unit requests. Nil means a
	// LocalExecutor over Cache — the in-process pool the scheduler has
	// always used. A RemoteExecutor shards units across worker
	// processes instead.
	Executor Executor
	// Metrics, when non-nil, receives per-unit instrumentation (latency
	// histograms by kind, error counts, inflight gauge) for every unit
	// the scheduler executes. Create once per process with NewMetrics.
	Metrics *Metrics
	// Progress, when non-nil, is called after each completed unit of work
	// (a discovery run, a collection, a set validation) with the number of
	// units finished so far and the total for the execution. Calls may
	// arrive from concurrent workers; done values are issued in increasing
	// order but may be *observed* out of order, so consumers that need
	// monotonic display should keep a running maximum. A whole-study cache
	// hit reports total/total once. Progress must not block: it runs on
	// the worker that finished the unit.
	Progress func(done, total int)
}

// executor resolves the effective unit executor.
func (o Options) executor() Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return &LocalExecutor{Cache: o.Cache}
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// indexedErr pairs a unit index with its failure, so fan-outs report the
// lowest-indexed error regardless of completion order (the unit a serial
// loop would have failed on first).
type indexedErr struct {
	idx int
	err error
}

// ForEach runs fn(0) … fn(n-1) with at most `workers` concurrent calls and
// waits for completion. On failure it cancels the remaining units and
// returns the lowest-indexed error; on context cancellation it returns
// ctx.Err(). fn must write its result into caller-owned storage at its
// index — never append — so result order is independent of scheduling.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu    sync.Mutex
		first *indexedErr
	)
	fail := func(i int, err error) {
		// A unit that reports context.Canceled after another unit failed is
		// collateral damage from our own cancellation (e.g. a nested
		// ForEach winding down), not the cause — it must never mask the
		// real error, whatever the indexes.
		collateral := errors.Is(err, context.Canceled)
		mu.Lock()
		switch {
		case first == nil:
			first = &indexedErr{idx: i, err: err}
		case collateral:
			// Never replace anything with a collateral cancellation.
		case errors.Is(first.err, context.Canceled):
			first = &indexedErr{idx: i, err: err}
		case i < first.idx:
			first = &indexedErr{idx: i, err: err}
		}
		mu.Unlock()
		cancel()
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if first != nil {
		return first.err
	}
	return ctx.Err()
}
