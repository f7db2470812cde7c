package par

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// widths are the GOMAXPROCS settings every property is checked at: the
// serial path, the box's likely width, and widths above the pool size
// (the pool has one goroutine per CPU, so extra blocks queue).
var widths = []int{1, 2, 4, 8}

// atEachWidth runs fn once per width with GOMAXPROCS set to it, and
// restores the previous setting even when fn fails the test.
func atEachWidth(fn func(w int)) {
	for _, w := range widths {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			fn(w)
		}()
	}
}

// TestBlocksCoversEveryIndexOnce pins the splitting contract for
// generated (n, grain) at every width: the blocks are contiguous and
// disjoint, and together cover [0, n) exactly.
func TestBlocksCoversEveryIndexOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	atEachWidth(func(w int) {
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(300)
			grain := rng.Intn(40) - 2 // includes grain <= 0
			visits := make([]int32, n)
			var mu sync.Mutex
			var blocks [][2]int
			Blocks(n, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
				mu.Lock()
				blocks = append(blocks, [2]int{lo, hi})
				mu.Unlock()
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d grain=%d: index %d visited %d times", w, n, grain, i, v)
				}
			}
			if len(blocks) > w {
				t.Fatalf("GOMAXPROCS=%d n=%d grain=%d: %d blocks, more than workers", w, n, grain, len(blocks))
			}
			if g := max(grain, 1); len(blocks) > 1 && n/len(blocks) < g {
				t.Fatalf("GOMAXPROCS=%d n=%d grain=%d: %d blocks is below the grain", w, n, grain, len(blocks))
			}
			// Sorted by start, the blocks chain from 0 to n with no gap,
			// no overlap and no empty block (n = 0 runs as one empty
			// block, inline).
			sort.Slice(blocks, func(a, b int) bool {
				return blocks[a][0] < blocks[b][0] || blocks[a][0] == blocks[b][0] && blocks[a][1] < blocks[b][1]
			})
			at := 0
			for _, b := range blocks {
				if b[0] != at || b[1] < b[0] || b[1] == b[0] && n > 0 {
					t.Fatalf("GOMAXPROCS=%d n=%d grain=%d: blocks %v do not tile [0,%d) with non-empty blocks", w, n, grain, blocks, n)
				}
				at = b[1]
			}
			if at != n {
				t.Fatalf("GOMAXPROCS=%d n=%d grain=%d: blocks %v stop at %d", w, n, grain, blocks, at)
			}
		}
	})
}

// TestEachRunsEveryItemOnce checks the success path at every width:
// each index runs exactly once and the error slice is nil.
func TestEachRunsEveryItemOnce(t *testing.T) {
	atEachWidth(func(w int) {
		for _, n := range []int{0, 1, 2, 7, 64, 257} {
			visits := make([]int32, n)
			errs := Each(context.Background(), n, func(i int) error {
				atomic.AddInt32(&visits[i], 1)
				return nil
			})
			if errs != nil {
				t.Fatalf("GOMAXPROCS=%d n=%d: errs = %v, want nil", w, n, errs)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: item %d ran %d times", w, n, i, v)
				}
			}
		}
	})
}

// TestEachCancelMidBatch is the cancellation regression test: two
// workers are parked inside fn when the context is cancelled, and from
// that point on (a) no further item starts — cancellation is visible to
// every later claim — and (b) every item that did not run reports
// ctx.Err(), including the items no worker had claimed yet.
func TestEachCancelMidBatch(t *testing.T) {
	const (
		n       = 8
		workers = 2
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	var arrived atomic.Int32
	barrier := make(chan struct{})
	out := make([]float64, n)
	errs := Each(ctx, n, func(i int) error {
		calls.Add(1)
		// Both workers park here; the second to arrive cancels, so the
		// cancellation is strictly ordered before either worker's next
		// claim.
		if arrived.Add(1) == workers {
			cancel()
			close(barrier)
		} else {
			<-barrier
		}
		out[i] = float64(i) + 1
		return nil
	})
	if got := calls.Load(); got != workers {
		t.Fatalf("%d items ran, want %d — an item started after cancellation", got, workers)
	}
	if len(errs) != n {
		t.Fatalf("len(errs) = %d, want %d", len(errs), n)
	}
	finished := 0
	for i := range errs {
		switch {
		case errs[i] == nil:
			if out[i] != float64(i)+1 {
				t.Fatalf("finished item %d = %v, want %v", i, out[i], float64(i)+1)
			}
			finished++
		case !errors.Is(errs[i], context.Canceled):
			t.Fatalf("unfinished item %d err = %v, want context.Canceled", i, errs[i])
		}
	}
	if finished != workers {
		t.Fatalf("%d items finished, want %d", finished, workers)
	}
}

// TestEachCancelledBeforeStart checks both paths (inline and pooled)
// run nothing under an already-cancelled context and report ctx.Err()
// for every item.
func TestEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	atEachWidth(func(w int) {
		errs := Each(ctx, 5, func(int) error {
			t.Error("item ran under a cancelled context")
			return nil
		})
		if len(errs) != 5 {
			t.Fatalf("GOMAXPROCS=%d: len(errs) = %d, want 5", w, len(errs))
		}
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("GOMAXPROCS=%d: item %d err = %v, want context.Canceled", w, i, err)
			}
		}
	})
}

// TestEachFirstErrorByIndexWins checks an item failure (not a
// cancellation) does not stop other items, and the lowest failing index
// is identifiable from the returned slice.
func TestEachFirstErrorByIndexWins(t *testing.T) {
	boom := errors.New("boom")
	atEachWidth(func(w int) {
		var ran atomic.Int32
		errs := Each(context.Background(), 6, func(i int) error {
			ran.Add(1)
			if i == 2 || i == 4 {
				return boom
			}
			return nil
		})
		if got := ran.Load(); got != 6 {
			t.Fatalf("GOMAXPROCS=%d: %d items ran, want all 6 — a failure stopped the batch", w, got)
		}
		first := -1
		for i, err := range errs {
			if err != nil {
				first = i
				break
			}
		}
		if first != 2 || !errors.Is(errs[4], boom) {
			t.Fatalf("GOMAXPROCS=%d: errs = %v, want boom at exactly 2 and 4", w, errs)
		}
	})
}

// TestEachSingleItemAllocs pins the one-item path — every cold single
// the scheduler flushes alone — at zero allocations: inline on the
// caller, no goroutine, no channel send, no error slice.
func TestEachSingleItemAllocs(t *testing.T) {
	ctx := context.Background()
	fn := func(int) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if errs := Each(ctx, 1, fn); errs != nil {
			t.Fatal(errs)
		}
	}); allocs != 0 {
		t.Fatalf("Each over one item allocates %.0f/op, want 0", allocs)
	}
}
