// Package par is the repository's one CPU fan-out: a persistent worker
// pool, Blocks for contiguous ranges (rows of a fused batch, gradient
// shards of a minibatch) and Each for independent items that may fail
// or be cancelled (cold plan encodes, fallback predictions). It is a
// leaf package, so serving and the experiment harness run a loop
// without importing a neural-net package. The width is GOMAXPROCS, read
// at call time: the knob Go already ships.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

type job struct {
	fn func(lo, hi int)
	wg sync.WaitGroup
}

// task is one block of a job. It travels over the channel by value, so
// dispatch allocates nothing.
type task struct {
	job    *job
	lo, hi int
}

var (
	jobPool  = sync.Pool{New: func() any { return new(job) }}
	taskCh   chan task
	poolOnce sync.Once
)

// startWorkers spawns the persistent pool — one goroutine per CPU,
// idling on the channel for the process lifetime.
func startWorkers() {
	n := runtime.NumCPU()
	// Room for a few concurrent callers' blocks before a dispatch has
	// to wait for a worker to come free.
	taskCh = make(chan task, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range taskCh {
				t.job.fn(t.lo, t.hi)
				t.job.wg.Done()
			}
		}()
	}
}

// Blocks runs fn(lo, hi) over disjoint contiguous blocks covering
// [0, n): at most one block per worker and none of them empty, the
// caller's block inline, the rest on the pool, returning once every
// block is done. grain is the minimum items per block — below 2*grain
// (or with GOMAXPROCS at one) fn runs serially inline as fn(0, n).
// Blocks execute the identical serial per-item code, so results are
// bitwise independent of the split and of scheduling.
//
// fn must treat items independently, and MUST NOT call Blocks or Each
// itself: a nested dispatch from a pool worker can wait on tasks no
// free worker is left to run.
func Blocks(n, grain int, fn func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	w := runtime.GOMAXPROCS(0)
	if mw := n / grain; mw < w {
		w = mw
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	poolOnce.Do(startWorkers)
	j := jobPool.Get().(*job)
	j.fn = fn
	block := (n + w - 1) / w
	// Blocks of ceil(n/w) can cover n in fewer than w (25 items on 6
	// workers take five blocks of 5); the rest would be empty.
	w = (n + block - 1) / block
	j.wg.Add(w - 1)
	lo := block // block 0 runs inline below
	for i := 1; i < w; i++ {
		hi := lo + block
		if hi > n {
			hi = n
		}
		taskCh <- task{job: j, lo: lo, hi: hi}
		lo = hi
	}
	fn(0, block)
	j.wg.Wait()
	j.fn = nil
	jobPool.Put(j)
}

// Each runs fn(i) for every i in [0, n) on up to GOMAXPROCS workers and
// returns the per-item errors: nil when every item ran and succeeded,
// otherwise a slice of length n aligned with the items. It owns the
// batch cancellation contract: no item starts once ctx is done, and
// every item that did not run reports ctx.Err(). A failing item does
// not stop the others, so the caller can name the lowest failing index
// — the one a serial scan would have reported.
//
// Workers claim the next index from one shared counter, so a slow item
// does not hold up the items behind it. With one item or one worker
// everything runs inline on the caller: no goroutine, no channel send,
// no allocation. fn must not call Blocks or Each (see Blocks).
func Each(ctx context.Context, n int, fn func(i int) error) []error {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 {
		var errs []error
		for i := 0; i < n; i++ {
			err := ctx.Err()
			if err == nil {
				err = fn(i)
			}
			if err != nil {
				if errs == nil {
					errs = make([]error, n)
				}
				errs[i] = err
			}
		}
		return errs
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	// One block per worker slot; a slot ignores its bounds and pulls
	// indexes until none are left.
	Blocks(w, 1, func(_, _ int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			err := ctx.Err()
			if err == nil {
				err = fn(i)
			}
			if err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	})
	if !failed.Load() {
		return nil
	}
	return errs
}
