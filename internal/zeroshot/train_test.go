package zeroshot

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// trainedWeights trains a fresh model (fixed seed) at the given
// GOMAXPROCS and returns the flattened weights plus the loss curve.
func trainedWeights(t *testing.T, samples []Sample, workers int, fineTune bool) ([]float64, []float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	cfg := smallConfig()
	cfg.Epochs = 3
	m := New(cfg)
	res, err := m.Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	losses := append([]float64(nil), res.EpochLoss...)
	if fineTune {
		ft, err := m.FineTune(samples[:len(samples)/2], 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, ft.EpochLoss...)
	}
	var weights []float64
	for _, p := range m.Params() {
		weights = append(weights, p.Val.Data...)
	}
	return weights, losses
}

// TestTrainBitwiseIdenticalAcrossWorkerCounts is the training engine's
// headline contract (the training-side analogue of
// TestFusedBatchBitwiseEqualsSequential): the shard layout and the
// gradient-reduce order depend only on the minibatch, never on the
// worker count, so serial (workers=1) and parallel (2, 4) training
// produce bitwise-identical weights and EpochLoss.
func TestTrainBitwiseIdenticalAcrossWorkerCounts(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	// 52 samples with batch 16: full shards-of-2 minibatches plus a
	// ragged 4-sample tail minibatch, so uneven shard layouts are
	// exercised too.
	samples := gatherSamples(t, db, 52, 17, encoding.CardExact)
	refW, refL := trainedWeights(t, samples, 1, true)
	for _, workers := range []int{2, 4} {
		w, l := trainedWeights(t, samples, workers, true)
		if len(w) != len(refW) {
			t.Fatalf("workers=%d: weight count %d != serial %d", workers, len(w), len(refW))
		}
		for i := range w {
			if w[i] != refW[i] {
				t.Fatalf("workers=%d: weight %d differs from serial: %v != %v (bitwise)",
					workers, i, w[i], refW[i])
			}
		}
		if len(l) != len(refL) {
			t.Fatalf("workers=%d: epoch count %d != serial %d", workers, len(l), len(refL))
		}
		for i := range l {
			if l[i] != refL[i] {
				t.Fatalf("workers=%d: epoch %d loss differs from serial: %v != %v (bitwise)",
					workers, i, l[i], refL[i])
			}
		}
	}
}

// countdownCtx reports Canceled after Err has been consulted n times —
// a deterministic mid-training cancellation point, independent of
// timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestTrainCancelsMidEpoch(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	samples := gatherSamples(t, db, 48, 23, encoding.CardExact)
	cfg := smallConfig()
	cfg.Epochs = 50
	m := New(cfg)
	// Budget of 3 Err calls: one epoch check plus two minibatch checks,
	// then the third minibatch boundary of epoch one aborts — well
	// before the 50 epochs finish.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(3)
	start := time.Now()
	res, err := m.TrainCtx(ctx, samples)
	if err == nil {
		t.Fatal("mid-epoch cancellation did not abort training")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("training abort error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("aborted training returned a result: %+v", res)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("canceled training still took %v", elapsed)
	}

	// A pre-canceled real context aborts before the first epoch.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.TrainCtx(cctx, samples); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: got %v", err)
	}
	// FineTune shares the loop, so it shares the cancellation contract.
	if _, err := m.FineTuneCtx(cctx, samples, 4, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled fine-tune: got %v", err)
	}
}

// TestTrainingAllocsCutByPooling pins what the packed trainer's pooling
// buys per minibatch: against a fresh tape per sample over the same real
// plans, a warm packed step — packings, slabs, row orders and gradient
// partials reused, its par.Blocks bodies built once — allocates nothing
// at all.
func TestTrainingAllocsCutByPooling(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	samples := gatherSamples(t, db, 16, 29, encoding.CardExact)
	m := New(smallConfig())

	unpooled := testing.AllocsPerRun(10, func() {
		for _, s := range samples {
			ts := &tapeScratch{tape: nn.NewTape()}
			out := m.forward(ts, s.Graph)
			target := nn.FromSlice([]float64{math.Log(s.RuntimeSec)})
			loss := ts.tape.HuberLoss(out, target, huberDelta)
			ts.tape.Backward(loss)
		}
	})

	mb := make([]int, len(samples))
	for i := range mb {
		mb[i] = i
	}
	st := getTrainScratch()
	defer st.release()
	st.bind(m, samples)
	st.step(mb, 0) // warm the scratch to its steady state
	pooled := testing.AllocsPerRun(10, func() { st.step(mb, 0) })
	t.Logf("%d-sample minibatch: a fresh tape per sample %.0f allocs, warm packed step %.0f", len(samples), unpooled, pooled)
	if pooled != 0 {
		t.Fatalf("a warm %d-sample packed step allocates %.0f objects, want 0 (a fresh tape per sample: %.0f)",
			len(samples), pooled, unpooled)
	}
}

// TestTrainReportsThroughput: TrainResult carries wall-time and
// samples/s for the adapt status surface and the train CLI.
func TestTrainReportsThroughput(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	samples := gatherSamples(t, db, 12, 31, encoding.CardExact)
	cfg := smallConfig()
	cfg.Epochs = 2
	m := New(cfg)
	res, err := m.Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTime <= 0 {
		t.Fatalf("WallTime not recorded: %v", res.WallTime)
	}
	if res.SamplesPerSec <= 0 {
		t.Fatalf("SamplesPerSec not recorded: %v", res.SamplesPerSec)
	}
}

func TestShardBounds(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{16, 8}, {15, 8}, {4, 8}, {1, 1}, {17, 8}, {8, 8}, {9, 4},
	} {
		shards := tc.shards
		if shards > tc.n {
			shards = tc.n
		}
		prev := 0
		for s := 0; s < shards; s++ {
			lo, hi := shardBounds(tc.n, shards, s)
			if lo != prev {
				t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", tc.n, tc.shards, s, lo, prev)
			}
			if hi <= lo {
				t.Fatalf("n=%d shards=%d: shard %d empty [%d,%d)", tc.n, tc.shards, s, lo, hi)
			}
			if hi-lo > (tc.n+shards-1)/shards {
				t.Fatalf("n=%d shards=%d: shard %d oversized [%d,%d)", tc.n, tc.shards, s, lo, hi)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d shards=%d: shards cover [0,%d), want [0,%d)", tc.n, tc.shards, prev, tc.n)
		}
	}
}
