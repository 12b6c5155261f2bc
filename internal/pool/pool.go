// Package pool provides the concurrency primitives the deterministic
// parallel engine needs: a bounded fan-out over an index range with ordered
// error collection, and a shared Pool whose global token budget bounds the
// combined concurrency of many fan-outs at once (the fleet scheduler runs
// every work unit of every study through one Pool). Work units must derive
// any randomness from their index (xrand.Mix), never from shared state, so
// results are identical at every worker count.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a shared worker budget: a fixed number of execution tokens that
// every ForEach routed through the pool contends for. Concurrent fan-outs
// (e.g. the placement campaigns and clustering repetitions of many studies
// in one suite) collectively never exceed the budget, while each individual
// fan-out keeps its ordered, deterministic collection semantics.
//
// Units must not start a nested ForEach on the same pool from inside
// fn: a unit holds its token while running, so nesting can deadlock once
// every token is held by a waiting parent.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool with the given token budget (0 means GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's token budget.
func (p *Pool) Workers() int { return cap(p.sem) }

// ForEach invokes fn(i) for every i in [0, n) and returns the error of the
// lowest-indexed unit that ran and failed, or nil. When p is non-nil every
// unit first acquires one of the pool's tokens, so concurrent fan-outs on
// one pool are collectively bounded by its budget; when p is nil the units
// run on a transient pool of at most workers goroutines (0 means
// GOMAXPROCS), and workers is otherwise ignored. Results do not depend on
// the budget, the width, or what else runs on the pool concurrently.
//
// Workers claim the next index from a shared atomic counter, so handing
// out a unit costs one atomic add rather than a channel handoff: units of
// a few µs pay no dispatcher. After any unit fails, not-yet-started units
// never run — the caller discards all outputs on error, so the
// short-circuit cannot affect determinism of successful runs (which error
// surfaces may vary with scheduling; that an error surfaces does not).
// When ctx is cancelled, no further unit starts, in-flight units finish,
// and the context's error is returned unless a unit failed first; a nil
// ctx means Background. Results are collected by index, never by
// completion order.
func ForEach(ctx context.Context, p *Pool, n, workers int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// With a pool, every unit holds one of its tokens while it runs.
	var sem chan struct{}
	if p != nil {
		sem, workers = p.sem, cap(p.sem)
	}
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// The lowest-indexed error among units that ran and failed wins; O(1)
	// state so huge index ranges cost nothing up front.
	var (
		errMu    sync.Mutex
		firstErr error
		firstIdx int
	)
	var failed atomic.Bool
	// stop is closed on the first unit failure so workers waiting for a
	// pool token quit instead of queueing behind unrelated token holders.
	stop := make(chan struct{})
	var stopOnce sync.Once
	record := func(i int, err error) {
		errMu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		errMu.Unlock()
		failed.Store(true)
		stopOnce.Do(func() { close(stop) })
	}
	done := ctx.Done()
	// halted reports whether no further unit may start: one failed or ctx
	// was cancelled.
	halted := func() bool {
		if failed.Load() {
			return true
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !halted() {
				i := next.Add(1) - 1
				if i >= uint64(n) {
					return
				}
				if sem != nil {
					select {
					case sem <- struct{}{}:
					case <-stop:
						return
					case <-done:
						return
					}
					// The budget wait may have been long; re-check so a
					// failure or cancellation meanwhile skips this unit.
					if halted() {
						<-sem
						return
					}
				}
				err := fn(int(i))
				if sem != nil {
					<-sem
				}
				if err != nil {
					record(int(i), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
