package zeroshot

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// TestVersionFollowsWeights pins the weights version a prediction memo
// keys its answers on: distinct and non-zero per model, fresh after
// every training run (finished, failed or cancelled mid-epoch) and
// after Params hands the weights out, untouched by Save and by
// prediction.
func TestVersionFollowsWeights(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	samples := gatherSamples(t, db, 24, 5, encoding.CardExact)
	cfg := smallConfig()
	cfg.Epochs = 2
	m := New(cfg)
	seen := map[uint64]string{0: "the empty slot"}
	fresh := func(step string) {
		t.Helper()
		v := m.Version()
		if prev, dup := seen[v]; dup {
			t.Fatalf("after %s the version is %d, already %s's", step, v, prev)
		}
		seen[v] = step
	}
	same := func(step string, f func()) {
		t.Helper()
		v := m.Version()
		f()
		if m.Version() != v {
			t.Fatalf("%s moved the version %d -> %d", step, v, m.Version())
		}
	}
	fresh("New")
	if other := New(cfg); other.Version() == m.Version() {
		t.Fatal("two models share a version")
	}

	var buf bytes.Buffer
	same("Save", func() {
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
	})
	same("PredictBatch", func() { m.PredictBatch([]*encoding.Graph{samples[0].Graph}) })
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := seen[loaded.Version()]; dup {
		t.Fatal("a loaded model reuses a version")
	}

	if _, err := m.Train(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	fresh("Train")
	if _, err := m.FineTune(context.Background(), samples, 1, 0); err != nil {
		t.Fatal(err)
	}
	fresh("FineTune")
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(3) // the epoch check, two minibatches, then abort
	if _, err := m.FineTune(ctx, samples, 4, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fine-tune err = %v", err)
	}
	fresh("a cancelled FineTune")
	bad := []Sample{{Graph: samples[0].Graph, RuntimeSec: -1}}
	if _, err := m.Train(context.Background(), bad); err == nil {
		t.Fatal("training on a negative runtime succeeded")
	}
	fresh("a failed Train")
	m.Params()
	fresh("Params")
}
