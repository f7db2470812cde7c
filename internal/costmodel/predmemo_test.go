package costmodel

import (
	"context"
	"math"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// lookup returns the memoized graph for the encoder key, if present.
func (m *EncodedPlan) lookup(key encoding.Key) (*encoding.Graph, bool) {
	g, _, _ := m.resolve(key, 0)
	return g, g != nil
}

// encode resolves the input's graph through the batch path, memoizing it.
func (z *ZeroShot) encode(in PlanInput) (*encoding.Graph, error) {
	graphs, err := z.encodeBatch(context.Background(), []PlanInput{in})
	if err != nil {
		return nil, itemCause(err)
	}
	return graphs[0], nil
}

// predictOne prices one input as a batch of one.
func predictOne(ctx context.Context, est Estimator, in PlanInput) (float64, error) {
	preds, err := est.PredictBatch(ctx, []PlanInput{in})
	if err != nil {
		return 0, itemCause(err)
	}
	return preds[0], nil
}

// freshPass prices the inputs the long way round: every plan encoded
// afresh, no memo consulted, one zeroshot.Model.PredictBatch over the
// graphs.
func freshPass(t *testing.T, zs *ZeroShot, ins []PlanInput) []float64 {
	t.Helper()
	graphs := make([]*encoding.Graph, len(ins))
	for i, in := range ins {
		g, err := encoding.NewPlanEncoder(in.DB.Schema, zs.card).Encode(in.Plan)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	return zs.model.PredictBatch(graphs)
}

// sameBits fails the test unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers for %d items", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s item %d: %v, fresh pass %v (bitwise)", what, i, got[i], want[i])
		}
	}
}

// TestPredictionMemoMatchesFreshPass pins the answer slot's bits: a
// batch answered from the memo, a single answered from it, and a mixed
// batch of hits, misses, a cold shape shared by two items, duplicates
// and an unmemoized item all return what a fresh pass over freshly
// encoded graphs returns; a failing item after a hit fails with the
// all-miss path's error text.
func TestPredictionMemoMatchesFreshPass(t *testing.T) {
	zs, f := fitZeroShot(t)
	ctx := context.Background()
	ins := Inputs(f.eval)
	for i := range ins {
		ins[i].Enc = NewEncodedPlan()
	}
	want := freshPass(t, zs, ins)
	sameBits(t, "cold batch", must(zs.PredictBatch(ctx, ins)), want)

	// Every memo now holds the pass's answer under the model's version.
	v := zs.model.Version()
	key := zs.encoder(ins[0]).Key()
	for i, in := range ins {
		_, seconds, answered := in.Enc.resolve(key, v)
		if !answered || math.Float64bits(seconds) != math.Float64bits(want[i]) {
			t.Fatalf("item %d: slot (%v, answered %v) after a pass that returned %v", i, seconds, answered, want[i])
		}
	}
	sameBits(t, "warm batch", must(zs.PredictBatch(ctx, ins)), want)
	for i, in := range ins {
		sameBits(t, "warm single", []float64{must(predictOne(ctx, zs, in))}, want[i:i+1])
	}

	// The warm answers come from the slot, not from another pass: a
	// planted answer is what comes back.
	planted := NewEncodedPlan()
	planted.store(key, must(zs.encode(ins[0])))
	planted.answer(key, v, 42)
	probe := ins[0]
	probe.Enc = planted
	if got := must(predictOne(ctx, zs, probe)); got != 42 {
		t.Fatalf("single over a planted answer = %v, want 42", got)
	}
	if got := must(zs.PredictBatch(ctx, []PlanInput{probe})); got[0] != 42 {
		t.Fatalf("batch over a planted answer = %v, want 42", got[0])
	}

	// A mixed batch: hits, a memoized graph with no answer, one cold
	// shape shared by two items over one memo, duplicates of a hit, and
	// an item without a memo.
	graphOnly := ins[1]
	graphOnly.Enc = NewEncodedPlan()
	graphOnly.Enc.store(key, must(zs.encode(ins[1])))
	cold := ins[2]
	cold.Enc = NewEncodedPlan()
	bare := ins[3]
	bare.Enc = nil
	mixed := []PlanInput{ins[0], graphOnly, cold, ins[4], ins[0], cold, bare, graphOnly}
	wantMixed := freshPass(t, zs, mixed)
	sameBits(t, "mixed batch", must(zs.PredictBatch(ctx, mixed)), wantMixed)
	for _, in := range []PlanInput{graphOnly, cold} {
		if _, _, answered := in.Enc.resolve(key, v); !answered {
			t.Fatal("a miss left its memo without an answer")
		}
	}
	sameBits(t, "mixed batch, answered", must(zs.PredictBatch(ctx, mixed)), wantMixed)

	// A failing item after a hit fails the way the all-miss batch does.
	broken := ins[2]
	broken.DB = storage.NewDatabase(&schema.Schema{Name: "empty"})
	broken.Enc = nil
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		bad  PlanInput
	}{
		{"invalid input", ctx, PlanInput{}},
		{"unencodable plan", ctx, broken},
		{"cancelled", cancelled, ins[5]},
	} {
		warm := []PlanInput{ins[0], tc.bad, ins[1]}
		allMiss := make([]PlanInput, len(warm))
		copy(allMiss, warm)
		for i := range allMiss {
			allMiss[i].Enc = nil
		}
		_, werr := zs.PredictBatch(tc.ctx, warm)
		_, merr := zs.PredictBatch(tc.ctx, allMiss)
		if werr == nil || merr == nil || werr.Error() != merr.Error() {
			t.Fatalf("%s: batch after a hit err = %v, all-miss batch err = %v", tc.name, werr, merr)
		}
	}
}

// must unwraps a call that the test expects to succeed; a failure
// panics, which fails the test binary with the error and its stack.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
