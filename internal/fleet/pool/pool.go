// Package pool is the bounded worker pool under the fleet engine. It
// runs n independent work items on at most w goroutines, propagates the
// first error (cancelling the remaining items), converts worker panics
// into errors, and — crucially for the simulator — keeps results in item
// order so that downstream aggregation is byte-identical regardless of
// the worker count or scheduling.
//
// The experiment sweeps (heatmap cells, Fig 9 trials, ablation points)
// and the multi-session fleet engine all fan out through this package.
// The package-level ForEach bounds one call; Runner is the same
// contract as a persistent pool whose capacity is shared across many
// concurrent calls (the movrd job scheduler's substrate), and Map
// collects a Runner's results in index order.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values below 1 become
// runtime.GOMAXPROCS(0), and the count never exceeds n (no idle
// goroutines are spawned).
func Workers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS). Items are claimed in index
// order. The first error cancels the shared context and is returned;
// items not yet claimed when the error occurs are skipped. A panic in fn
// is recovered and reported as an error rather than crashing the
// process. With workers == 1 execution is strictly sequential in index
// order.
//
// An ephemeral pool is exactly a one-shot Runner, so this delegates —
// the two paths cannot drift apart behaviorally.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	return NewRunner(Workers(workers, n)).ForEach(ctx, n, fn)
}

// Runner is a persistent bounded worker pool shared by many concurrent
// ForEach/Map calls. Where the package-level functions bound the
// parallelism of one call, a Runner bounds the parallelism of every
// call that goes through it put together: the movrd scheduler
// multiplexes all concurrent API jobs onto a single Runner so the
// machine never runs more sessions at once than its capacity, however
// many jobs are in flight.
//
// A slot is held only while an item executes, never while a call waits,
// so concurrent calls interleave item-by-item instead of serializing
// whole jobs. Determinism is unchanged: results land in index slots, so
// a run is byte-identical whatever the Runner's capacity.
type Runner struct {
	slots chan struct{}
	inUse atomic.Int64
}

// NewRunner builds a shared pool with the given capacity (<= 0 means
// GOMAXPROCS).
func NewRunner(capacity int) *Runner {
	if capacity < 1 {
		capacity = runtime.GOMAXPROCS(0)
	}
	r := &Runner{slots: make(chan struct{}, capacity)}
	for i := 0; i < capacity; i++ {
		r.slots <- struct{}{}
	}
	return r
}

// Capacity reports the slot count.
func (r *Runner) Capacity() int { return cap(r.slots) }

// InUse reports how many slots are currently executing items — a
// utilization gauge, inherently racy and only for monitoring.
func (r *Runner) InUse() int { return int(r.inUse.Load()) }

// ForEach runs fn(ctx, i) for every i in [0, n), each item executing
// only while holding one of the Runner's shared slots. Items are
// claimed in index order; error/panic/cancellation semantics match the
// package-level ForEach. Cancelling ctx releases the call promptly even
// when every slot is busy with other callers' items.
func (r *Runner) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	// Spawning more goroutines than slots is pointless; they would all
	// block on acquisition.
	workers := Workers(r.Capacity(), n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				fail(fmt.Errorf("pool: item %d panicked: %v\n%s", i, r, debug.Stack()))
			}
		}()
		if err := fn(ctx, i); err != nil {
			fail(fmt.Errorf("pool: item %d: %w", i, err))
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				select {
				case <-r.slots:
				case <-ctx.Done():
					return
				}
				r.inUse.Add(1)
				run(i)
				r.inUse.Add(-1)
				r.slots <- struct{}{}
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn over [0, n) through r.ForEach and returns the results in
// index order — the slot for item i holds fn's result for i, whatever
// worker computed it. On error the partial results are discarded. (A
// free function because Go methods cannot introduce type parameters.)
func Map[T any](ctx context.Context, r *Runner, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := r.ForEach(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
