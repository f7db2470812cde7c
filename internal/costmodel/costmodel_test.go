package costmodel

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// fixture is the shared tiny training/eval corpus for the adapter tests:
// one small database with collected executions split into train and eval.
type fixture struct {
	db    *storage.Database
	train []Sample
	eval  []Sample
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func sharedFixture(t testing.TB) fixture {
	t.Helper()
	fixOnce.Do(func() {
		cfg := datagen.DefaultConfig()
		cfg.MaxRows = 6000
		db, err := datagen.Generate("cmtest", 11, cfg)
		if err != nil {
			fixErr = err
			return
		}
		recs, err := collect.Run(db, collect.Options{Queries: 120, Seed: 3})
		if err != nil {
			fixErr = err
			return
		}
		samples := FromRecords(db, recs)
		fix = fixture{db: db, train: samples[:90], eval: samples[90:]}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// smallOpts keeps neural adapters in test-time budgets.
func smallOpts() Options {
	return Options{Hidden: 16, Epochs: 4, Seed: 1, Card: encoding.CardExact}
}

func TestNamesListsAllBuiltins(t *testing.T) {
	names := Names()
	want := []string{NameE2E, NameMSCN, NameScaledCost, NameZeroShot}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestNewUnknownEstimator(t *testing.T) {
	if _, err := New("no-such-model", Options{}); err == nil {
		t.Fatal("New accepted an unknown name")
	}
}

// TestAllEstimatorsFitPredictRoundTrip drives the whole contract for every
// registered estimator: construct by name, Fit, PredictBatch, then
// Save/Load through the registry and check the reconstructed estimator
// predicts identically.
func TestAllEstimatorsFitPredictRoundTrip(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			est, err := New(name, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if est.Name() != name {
				t.Fatalf("Name() = %q, want %q", est.Name(), name)
			}
			report, err := est.Fit(ctx, f.train)
			if err != nil {
				t.Fatal(err)
			}
			if report.Samples != len(f.train) {
				t.Fatalf("report.Samples = %d, want %d", report.Samples, len(f.train))
			}
			ins := Inputs(f.eval)
			batch, err := est.PredictBatch(ctx, ins)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(ins) {
				t.Fatalf("batch returned %d predictions for %d inputs", len(batch), len(ins))
			}
			for i, p := range batch {
				if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("prediction %d not a positive runtime: %v", i, p)
				}
			}

			var buf bytes.Buffer
			if err := Save(&buf, est); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Name() != name {
				t.Fatalf("loaded Name() = %q, want %q", loaded.Name(), name)
			}
			reBatch, err := loaded.PredictBatch(ctx, ins)
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				if math.Abs(reBatch[i]-batch[i]) > 1e-12 {
					t.Fatalf("loaded model diverges at %d: %v vs %v", i, reBatch[i], batch[i])
				}
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	var buf bytes.Buffer
	buf.WriteString("\x00\x00\x00")
	if _, err := Load(&buf); err == nil {
		t.Fatal("Load accepted truncated input")
	}
}

// TestLoadRejectsNonFiniteWeights saves a zero-shot model with one NaN or
// infinite weight: Load must refuse the file and name the tensor, since
// such a model answers NaN, which no reply can encode.
func TestLoadRejectsNonFiniteWeights(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		est, err := New(NameZeroShot, Options{Hidden: 8})
		if err != nil {
			t.Fatal(err)
		}
		est.(*ZeroShot).Model().Params()[3].Val.Data[2] = bad
		var buf bytes.Buffer
		if err := Save(&buf, est); err != nil {
			t.Fatal(err)
		}
		_, err = Load(&buf)
		if err == nil || !strings.Contains(err.Error(), "tensor 3 value 2") {
			t.Fatalf("weight %v: Load returned %v, want an error naming tensor 3 value 2", bad, err)
		}
	}
}

// zeroStream reads as an endless run of zero bytes and counts how many
// it handed out.
type zeroStream struct{ n int64 }

func (z *zeroStream) Read(p []byte) (int, error) {
	clear(p)
	z.n += int64(len(p))
	return len(p), nil
}

// TestLoadRefusesStreamPastCap feeds Load a valid file header whose
// payload is one gob message claiming three times MaxFileSize, followed
// by as many zero bytes as anyone reads. Load must stop at the cap and
// say so, allocating less than the message claims.
func TestLoadRefusesStreamPastCap(t *testing.T) {
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(fileHeader{Magic: fileMagic, Name: NameScaledCost}); err != nil {
		t.Fatal(err)
	}
	// A gob message length above 127 is minus its byte count, then the
	// bytes big-endian: 3 << 25 = 0x06000000.
	hdr.Write([]byte{0xfc, 0x06, 0x00, 0x00, 0x00})
	tail := &zeroStream{}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(io.MultiReader(&hdr, tail))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxFileSize)) {
		t.Fatalf("Load of a stream past the cap: err = %v, want one naming the %d-byte cap", err, MaxFileSize)
	}
	if tail.n > MaxFileSize {
		t.Fatalf("Load read %d bytes of the stream, past the %d-byte cap", tail.n, MaxFileSize)
	}
	// gob reads a message of 10 MiB or more in 10 MiB chunks appended to
	// one growing slice, so reading up to the cap allocates about 2.3
	// times the cap; reading the whole claim would allocate more than it.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*MaxFileSize {
		t.Fatalf("refusing the stream allocated %d bytes, want under the %d bytes its message claims", alloc, 3*MaxFileSize)
	}
}

// TestPredictEach covers the batch-failure policy every caller of a
// batch shares: a healthy batch takes the fused route alone, one bad
// input isolates the batch into per-input predictions whose answers and
// errors align with the inputs, and a context ended during the fallback
// leaves the unfinished inputs with its error.
func TestPredictEach(t *testing.T) {
	f := sharedFixture(t)
	zs, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	healthy := Inputs(f.eval[:6])
	fused, err := zs.PredictBatch(ctx, healthy)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("healthy", func(t *testing.T) {
		preds, errs, isolated := PredictEach(ctx, zs, healthy)
		if isolated || errs != nil {
			t.Fatalf("healthy batch: isolated %v, errs %v", isolated, errs)
		}
		for i := range fused {
			if math.Float64bits(preds[i]) != math.Float64bits(fused[i]) {
				t.Fatalf("item %d = %v, want the fused %v", i, preds[i], fused[i])
			}
		}
	})

	t.Run("poisoned", func(t *testing.T) {
		const bad = 2 // an empty input has no plan to encode
		ins := append(append(append([]PlanInput{}, healthy[:bad]...), PlanInput{}), healthy[bad:]...)
		preds, errs, isolated := PredictEach(ctx, zs, ins)
		if !isolated || len(errs) != len(ins) || len(preds) != len(ins) {
			t.Fatalf("poisoned batch: isolated %v, %d errs, %d preds for %d inputs", isolated, len(errs), len(preds), len(ins))
		}
		// The fallback's error is the adapter's own, not the batch's.
		if want := "zeroshot estimator needs DB and Plan inputs"; errs[bad] == nil || errs[bad].Error() != want {
			t.Fatalf("the poisoned input %d = (%v, %v), want error %q", bad, preds[bad], errs[bad], want)
		}
		for i := range ins {
			j := i
			if i == bad {
				continue
			} else if i > bad {
				j--
			}
			if errs[i] != nil || math.Float64bits(preds[i]) != math.Float64bits(fused[j]) {
				t.Fatalf("item %d = (%v, %v), want the fused %v", i, preds[i], errs[i], fused[j])
			}
		}
	})

	t.Run("serial adapter", func(t *testing.T) {
		mscn, err := New(NameMSCN, Options{Hidden: 8, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mscn.Fit(ctx, f.train); err != nil {
			t.Fatal(err)
		}
		ins := []PlanInput{healthy[0], {DB: f.db}, healthy[1]}
		_, errs, isolated := PredictEach(ctx, mscn, ins)
		if want := "mscn estimator needs DB and Query inputs"; !isolated || errs[1] == nil || errs[1].Error() != want {
			t.Fatalf("isolated %v, poisoned input's error %v, want %q", isolated, errs, want)
		}
		if errs[0] != nil || errs[2] != nil {
			t.Fatalf("healthy inputs failed: %v", errs)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		est := cancelOnPredict{Estimator: zs, cancel: cancel}
		ins := Inputs(f.eval[:16])
		preds, errs, isolated := PredictEach(cctx, est, ins)
		if !isolated || len(errs) != len(ins) {
			t.Fatalf("isolated %v, %d errs for %d inputs", isolated, len(errs), len(ins))
		}
		cancelled := 0
		for i, err := range errs {
			switch {
			case err == nil && preds[i] == 1:
			case errors.Is(err, context.Canceled) && preds[i] == 0:
				cancelled++
			default:
				t.Fatalf("item %d = (%v, %v), want (1, nil) or (0, context.Canceled)", i, preds[i], err)
			}
		}
		// Each worker may have claimed one input before the first
		// batch of one cancelled; every later input must not start.
		if want := len(ins) - runtime.GOMAXPROCS(0); cancelled < want {
			t.Fatalf("%d inputs report the cancellation, want at least %d", cancelled, want)
		}
	})
}

// cancelOnPredict aborts every batch of more than one and cancels the
// context from its first batch of one on.
type cancelOnPredict struct {
	Estimator
	cancel context.CancelFunc
}

func (c cancelOnPredict) PredictBatch(_ context.Context, ins []PlanInput) ([]float64, error) {
	if len(ins) > 1 {
		return nil, errors.New("batch aborted")
	}
	c.cancel()
	return []float64{1}, nil
}

func TestPredictValidatesInputs(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	zs, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zs.PredictBatch(ctx, []PlanInput{{}}); err == nil {
		t.Fatal("zeroshot accepted an empty input")
	}
	mscn, err := New(NameMSCN, Options{Hidden: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mscn.PredictBatch(ctx, []PlanInput{{DB: f.db}}); err == nil {
		t.Fatal("mscn accepted an input without a query")
	}
	sc, err := New(NameScaledCost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Fit(ctx, []Sample{{PlanInput: PlanInput{OptimizerCost: 0}, RuntimeSec: 1}}); err == nil {
		t.Fatal("scaledcost accepted a zero-cost sample")
	}
}

func TestPredictBatchEmptyAndCancelled(t *testing.T) {
	f := sharedFixture(t)
	sc, err := New(NameScaledCost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Fit(context.Background(), f.train); err != nil {
		t.Fatal(err)
	}
	out, err := sc.PredictBatch(context.Background(), nil)
	if err != nil || out != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", out, err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.PredictBatch(cancelled, Inputs(f.eval)); err == nil {
		t.Fatal("PredictBatch ignored a cancelled context")
	}
}

// TestPredictBatchCancelledReportsContextError checks the serial batch
// loop of the non-fusing adapters: a cancellation that lands mid-batch
// surfaces ctx.Err() wrapped with the first unfinished index, never a
// partial result.
func TestPredictBatchCancelledReportsContextError(t *testing.T) {
	f := sharedFixture(t)
	sc, err := New(NameScaledCost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Fit(context.Background(), f.train); err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(2) // items 0 and 1 predict, item 2 sees the cancel
	out, err := sc.PredictBatch(ctx, Inputs(f.eval))
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch = (%v, %v), want (nil, context.Canceled)", out, err)
	}
	if want := "costmodel: batch item 2: context canceled"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
}

// TestPredictBatchNamesFirstFailingItem checks the same loop's error
// contract: a predict failure aborts the batch and the error names the
// lowest failing index.
func TestPredictBatchNamesFirstFailingItem(t *testing.T) {
	f := sharedFixture(t)
	mscn, err := New(NameMSCN, Options{Hidden: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mscn.Fit(context.Background(), f.train); err != nil {
		t.Fatal(err)
	}
	bad := PlanInput{DB: f.db} // no query: featurization fails
	ins := []PlanInput{f.eval[0].PlanInput, bad, f.eval[1].PlanInput, bad}
	_, err = mscn.PredictBatch(context.Background(), ins)
	if err == nil {
		t.Fatal("batch with an unfeaturizable input did not fail")
	}
	if want := "costmodel: batch item 1: "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %q, want prefix %q", err, want)
	}
}

// TestFineTuneCapability checks the optional Tuner interface: only the
// zero-shot adapter supports the paper's few-shot mode, and fine-tuning on
// a new database's samples runs through the same Sample type.
func TestFineTuneCapability(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	zs, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ft, ok := zs.(Tuner)
	if !ok {
		t.Fatal("zeroshot does not implement Tuner")
	}
	if _, err := zs.Fit(ctx, f.train); err != nil {
		t.Fatal(err)
	}
	if _, err := ft.FineTune(ctx, f.eval, 2, 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{NameMSCN, NameE2E, NameScaledCost} {
		est, err := New(name, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := est.(Tuner); ok {
			t.Fatalf("%s unexpectedly implements Tuner", name)
		}
	}
}

// TestCloneCapability checks the Clone half of the Tuner interface the adaptation
// subsystem depends on: the clone predicts identically to the original,
// and fine-tuning the clone never moves the original's predictions —
// that independence is what makes background fine-tuning safe while the
// original keeps serving.
func TestCloneCapability(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	zs, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zs.Fit(ctx, f.train); err != nil {
		t.Fatal(err)
	}
	tuner, ok := zs.(Tuner)
	if !ok {
		t.Fatal("zeroshot does not implement Tuner")
	}
	clone := tuner.Clone()
	if clone.Name() != zs.Name() {
		t.Fatalf("clone name %q, want %q", clone.Name(), zs.Name())
	}
	if zsClone, ok := clone.(*ZeroShot); !ok || zsClone.Card() != zs.(*ZeroShot).Card() {
		t.Fatalf("clone lost the cardinality source")
	}
	in := f.eval[0].PlanInput
	before, err := predictOne(ctx, zs, in)
	if err != nil {
		t.Fatal(err)
	}
	clonePred, err := predictOne(ctx, clone, in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(before-clonePred) > 1e-12 {
		t.Fatalf("clone predicts %v, original %v", clonePred, before)
	}
	if _, err := clone.FineTune(ctx, f.eval, 3, 0.01); err != nil {
		t.Fatal(err)
	}
	after, err := predictOne(ctx, zs, in)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("fine-tuning the clone moved the original: %v -> %v", before, after)
	}
	tuned, err := predictOne(ctx, clone, in)
	if err != nil {
		t.Fatal(err)
	}
	if tuned == clonePred {
		t.Fatal("fine-tuning did not change the clone's prediction (suspicious for a shared-weights bug)")
	}
}

// TestFitRefusesInvalidRuntimes: a training set with one NaN, +Inf or
// non-positive runtime fails Fit on every estimator before any weight
// moves, so an estimator fitted before keeps predicting bit for bit what
// it did. A NaN target would otherwise train every weight to NaN.
func TestFitRefusesInvalidRuntimes(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	ins := Inputs(f.eval)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			est, err := New(name, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := est.Fit(ctx, f.train); err != nil {
				t.Fatal(err)
			}
			want, err := est.PredictBatch(ctx, ins)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
				train := append([]Sample(nil), f.train...)
				train[len(train)/2].RuntimeSec = bad
				if _, err := est.Fit(ctx, train); err == nil {
					t.Fatalf("Fit with runtime %v at sample %d returned nil", bad, len(train)/2)
				}
				got, err := est.PredictBatch(ctx, ins)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("after the refused fit on runtime %v, item %d predicts %v, before %v (bitwise)", bad, i, got[i], want[i])
					}
				}
			}
		})
	}
}
