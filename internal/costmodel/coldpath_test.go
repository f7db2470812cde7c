package costmodel

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// fitZeroShot builds and fits a small zero-shot estimator on the shared
// fixture for the cold-path tests.
func fitZeroShot(t testing.TB) (*ZeroShot, fixture) {
	t.Helper()
	f := sharedFixture(t)
	est, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Fit(context.Background(), f.train); err != nil {
		t.Fatal(err)
	}
	return est.(*ZeroShot), f
}

// TestColdBatchParallelEqualsSerial pins the parallel cold path bitwise
// against a serial encode of the same inputs: encode every item one at
// a time through the single-predict path, run the fused pass over those
// graphs, and require PredictBatch (memo→dedup→parallel encode→pack)
// to produce the identical float64s at GOMAXPROCS 1 and 4 — unmemoized,
// cold into fresh memos, and again warm.
func TestColdBatchParallelEqualsSerial(t *testing.T) {
	zs, f := fitZeroShot(t)
	ctx := context.Background()

	ins := make([]PlanInput, len(f.eval))
	for i := range f.eval {
		ins[i] = f.eval[i].PlanInput
		ins[i].Enc = nil // fully cold, no memo
	}

	// Serial reference: per-item encode, one fused forward pass.
	graphs := make([]*encoding.Graph, len(ins))
	for i, in := range ins {
		g, err := zs.encode(in)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	want := zs.model.PredictBatch(graphs)

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for i := range ins {
			ins[i].Enc = nil
		}
		for _, pass := range []string{"cold", "cold-into-memo", "warm"} {
			got, err := zs.PredictBatch(ctx, ins)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS=%d %s item %d: %v != serial %v", procs, pass, i, got[i], want[i])
				}
			}
			if pass == "cold" {
				// Memoized inputs must agree bitwise too.
				for i := range ins {
					ins[i].Enc = NewEncodedPlan()
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestColdBatchDedup pins the dedup stage: N cold items sharing one
// plan (and one memo) must encode exactly once — every item's memo
// entry is the SAME graph pointer, proving a single Encode produced the
// batch's graph — and the scan must report exactly one distinct shape.
func TestColdBatchDedup(t *testing.T) {
	zs, f := fitZeroShot(t)
	ctx := context.Background()

	const n = 64
	base := f.eval[0].PlanInput
	key := zs.encoder(base).Key()

	// Each duplicate carries its OWN memo: if the batch encoded the
	// shape more than once, different memos would end up holding
	// different graph pointers.
	ins := make([]PlanInput, n)
	memos := make([]*EncodedPlan, n)
	for i := range ins {
		ins[i] = base
		memos[i] = NewEncodedPlan()
		ins[i].Enc = memos[i]
	}
	if _, err := zs.PredictBatch(ctx, ins); err != nil {
		t.Fatal(err)
	}
	g0, ok := memos[0].lookup(key)
	if !ok {
		t.Fatal("cold batch did not populate the memo")
	}
	for i, m := range memos {
		g, ok := m.lookup(key)
		if !ok {
			t.Fatalf("item %d memo not populated", i)
		}
		if g != g0 {
			t.Fatalf("item %d got a different graph than item 0 — shape encoded more than once", i)
		}
	}

	// The scan itself: one distinct shape carrying all n items.
	for i := range ins {
		ins[i].Enc = NewEncodedPlan()
	}
	graphs, err := zs.encodeBatch(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if graphs[i] != graphs[0] {
			t.Fatalf("item %d graph differs from item 0 after dedup", i)
		}
	}
}

// TestColdBatchConcurrentSharedMemo hammers the parallel cold path from
// many goroutines over inputs sharing ONE memo (the serving plan-cache
// shape: concurrent cold batches racing to warm the same entry). Half
// the goroutines predict through an estimator with another cardinality
// source, so the memo's one slot changes key under them. Run under
// -race in CI; results must match each estimator's serial reference
// bitwise.
func TestColdBatchConcurrentSharedMemo(t *testing.T) {
	zs, f := fitZeroShot(t)
	other, err := New(NameZeroShot, Options{Hidden: 16, Epochs: 4, Seed: 1, Card: encoding.CardNone})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ins := make([]PlanInput, len(f.eval))
	for i := range f.eval {
		ins[i] = f.eval[i].PlanInput
		ins[i].Enc = nil
	}
	ests := []Estimator{zs, other}
	wants := make([][]float64, len(ests))
	for e, est := range ests {
		if wants[e], err = est.PredictBatch(ctx, ins); err != nil {
			t.Fatal(err)
		}
	}

	// One shared memo per item, shared across every goroutine's batch.
	shared := make([]PlanInput, len(ins))
	copy(shared, ins)
	for i := range shared {
		shared[i].Enc = NewEncodedPlan()
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			got, err := ests[e].PredictBatch(ctx, shared)
			if err != nil {
				errCh <- err
				return
			}
			for i := range got {
				if got[i] != wants[e][i] {
					t.Errorf("concurrent cold batch of estimator %d, item %d: %v != %v", e, i, got[i], wants[e][i])
					return
				}
			}
		}(g % len(ests))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestColdBatchErrorNamesFirstItem pins the parallel path's error
// contract: the lowest failing input index is the one reported, even
// when the failure is discovered on a worker.
func TestColdBatchErrorNamesFirstItem(t *testing.T) {
	zs, f := fitZeroShot(t)
	ctx := context.Background()

	// An input whose plan references a table missing from its schema
	// fails inside Encode (not in the pre-scan validation).
	broken := f.eval[0].PlanInput
	broken.DB = storage.NewDatabase(&schema.Schema{Name: "empty"})
	broken.Enc = nil

	ins := []PlanInput{f.eval[1].PlanInput, broken, f.eval[2].PlanInput, broken}
	for i := range ins {
		ins[i].Enc = nil
	}
	_, err := zs.PredictBatch(ctx, ins)
	if err == nil {
		t.Fatal("batch with an unencodable input did not fail")
	}
	if want := "costmodel: batch item 1: "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %q, want prefix %q", err, want)
	}
}

// TestPredictBatchWarmAllocsPinned pins the warm path: an all-answered
// batch — every memo holding the answer under the current weights —
// allocates the graphs and answers slices and nothing else: no pack, no
// pass, nothing per item, no dedup map, no worker pool.
func TestPredictBatchWarmAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc bounds only hold unraced")
	}
	zs, f := fitZeroShot(t)
	ctx := context.Background()

	n := len(f.eval)
	ins := make([]PlanInput, n)
	for i := range f.eval {
		ins[i] = f.eval[i].PlanInput
		ins[i].Enc = NewEncodedPlan()
	}
	// Warm every memo and the fused pass's pooled buffers.
	if _, err := zs.PredictBatch(ctx, ins); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := zs.PredictBatch(ctx, ins); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm PredictBatch allocates %.0f/op over %d items, want <= 2 — warm path no longer allocation-pinned", allocs, n)
	}
}

// memoGraph is the graph in's memo holds for z's encoder key, or nil.
func memoGraph(z *ZeroShot, in PlanInput) *encoding.Graph {
	g, _, _ := in.Enc.resolve(z.encoder(in).Key(), 0)
	return g
}

// TestEncodedPlanMemoBoundedAcrossGenerations is the memo-leak
// regression test. The memo used to key on the encoder pointer, and
// every model generation (an adaptation Clone, a bundle Load) builds new
// encoders: each generation's first hit on a cached plan missed,
// re-encoded and stranded one more graph in the entry, forever. Keyed by
// encoder content, the memo's one slot keeps the graph however many
// generations pass over it, and a clone reuses the graph its parent
// encoded.
func TestEncodedPlanMemoBoundedAcrossGenerations(t *testing.T) {
	zs, f := fitZeroShot(t)
	ctx := context.Background()

	in := f.eval[0].PlanInput
	in.Enc = NewEncodedPlan()
	parent, err := zs.encode(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := predictOne(ctx, zs, in)
	if err != nil {
		t.Fatal(err)
	}

	var gen Estimator = zs
	for round := 0; round < 5; round++ {
		gen = gen.(Tuner).Clone()
		if round == 2 {
			// One generation arrives the way a bundle does: through
			// the self-describing file format.
			var buf bytes.Buffer
			if err := Save(&buf, gen); err != nil {
				t.Fatal(err)
			}
			if gen, err = Load(&buf); err != nil {
				t.Fatal(err)
			}
		}
		g, err := gen.(*ZeroShot).encode(in)
		if err != nil {
			t.Fatal(err)
		}
		if g != parent {
			t.Fatalf("generation %d re-encoded a plan its parent had memoized", round+1)
		}
		got, err := predictOne(ctx, gen, in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("generation %d predicts %v over the shared graph, parent %v", round+1, got, want)
		}
		if memoGraph(gen.(*ZeroShot), in) != parent {
			t.Fatalf("memo lost its parent's graph after %d generations", round+1)
		}
	}

	// A different cardinality source is a different configuration: its
	// own graph, which takes the slot.
	other, err := New(NameZeroShot, Options{Hidden: 16, Epochs: 4, Seed: 1, Card: encoding.CardNone})
	if err != nil {
		t.Fatal(err)
	}
	if other.(*ZeroShot).card == zs.card {
		t.Fatal("fixture broken: both adapters use the same cardinality source")
	}
	og, err := other.(*ZeroShot).encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if og == parent {
		t.Fatal("adapters with different cardinality sources shared a graph")
	}
	if memoGraph(other.(*ZeroShot), in) != og || memoGraph(zs, in) != nil {
		t.Fatal("the second configuration's graph did not take the memo's slot")
	}
	// The first configuration then misses, re-encodes and predicts the
	// same bits as before.
	got, err := predictOne(ctx, zs, in)
	if err != nil {
		t.Fatal(err)
	}
	if g := memoGraph(zs, in); g == nil || g == parent || g == og {
		t.Fatal("the first configuration did not re-encode into the slot")
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("re-encoded plan predicts %v, first encoding %v", got, want)
	}
}

// TestZeroShotEncoderReattach is the re-attach regression test: an
// independently built copy of the SAME database (a re-attach or reload
// rebuilds *schema.Schema) must not strand per-pointer state. The
// adapter keeps no encoder map at all now; what a reload must still
// share is the memo — the encoder key is schema content, so the
// re-attached database hits the graph encoded before the reload and
// predicts identically.
func TestZeroShotEncoderReattach(t *testing.T) {
	zs, f := fitZeroShot(t)
	ctx := context.Background()

	cfg := datagen.DefaultConfig()
	cfg.MaxRows = 6000
	reload, err := datagen.Generate("cmtest", 11, cfg) // sharedFixture's recipe
	if err != nil {
		t.Fatal(err)
	}
	if reload.Schema == f.db.Schema {
		t.Fatal("fixture broken: reload shares the schema pointer")
	}
	if reload.Schema.Fingerprint() != f.db.Schema.Fingerprint() {
		t.Fatal("identical schemas disagree on fingerprint")
	}

	inA := f.eval[0].PlanInput
	inA.Enc = NewEncodedPlan()
	inB := inA
	inB.DB = reload
	a, err := predictOne(ctx, zs, inA)
	if err != nil {
		t.Fatal(err)
	}
	encoded := memoGraph(zs, inA)
	b, err := predictOne(ctx, zs, inB)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same plan on re-attached database predicts differently: %v != %v", a, b)
	}
	if encoded == nil || memoGraph(zs, inB) != encoded {
		t.Fatal("the re-attached database does not share the graph encoded before it — the reload re-encoded")
	}
}
