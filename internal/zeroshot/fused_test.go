package zeroshot

import (
	"context"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// fusedFixture trains a small model and returns it with held-out
// graphs. FlatSum selects the ablation A2 architecture, whose fused
// path takes the per-graph mean-pooling branch.
func fusedFixture(t *testing.T, flatSum bool) (*Model, []*encoding.Graph) {
	t.Helper()
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	samples := gatherSamples(t, db, 80, 21, encoding.CardExact)
	cfg := smallConfig()
	cfg.Epochs = 3
	cfg.FlatSum = flatSum
	m := New(cfg)
	if _, err := m.Train(context.Background(), samples[:50]); err != nil {
		t.Fatal(err)
	}
	graphs := make([]*encoding.Graph, 0, len(samples)-50)
	for _, s := range samples[50:] {
		graphs = append(graphs, s.Graph)
	}
	return m, graphs
}

// TestPredictBatchBitwiseEqualsPredict pins the fused batched forward
// pass (BatchGraph packing + inference-only execution) bitwise to the
// tape oracle's prediction, across batch sizes including 1, and across
// repeated calls so recycled pool buffers cannot leak state between
// batches.
func TestPredictBatchBitwiseEqualsPredict(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flatSum bool
	}{
		{"message-passing", false},
		{"flat-sum", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, graphs := fusedFixture(t, tc.flatSum)
			want := make([]float64, len(graphs))
			for i, g := range graphs {
				want[i] = m.tapePredict(g)
			}
			for _, size := range []int{1, 3, len(graphs)} {
				got := m.PredictBatch(graphs[:size])
				if len(got) != size {
					t.Fatalf("batch %d returned %d predictions", size, len(got))
				}
				for i, p := range got {
					if p != want[i] {
						t.Fatalf("batch %d item %d: fused %v != tape %v", size, i, p, want[i])
					}
				}
			}
			// Second full pass through the recycled pack/inference pools.
			again := m.PredictBatch(graphs)
			for i, p := range again {
				if p != want[i] {
					t.Fatalf("repeat pass item %d: %v != %v", i, p, want[i])
				}
			}
		})
	}
}

// TestPredictBatchMixedSchemas packs graphs encoded against two
// different databases into one batch — the shape a multi-database
// serving session's coalescer produces — and checks per-graph results
// match the tape oracle's.
func TestPredictBatchMixedSchemas(t *testing.T) {
	imdb, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	cfg := datagen.DefaultConfig()
	cfg.MaxRows = 5000
	other, err := datagen.Generate("fusedmix", 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*encoding.Graph
	for _, s := range gatherSamples(t, imdb, 10, 31, encoding.CardExact) {
		graphs = append(graphs, s.Graph)
	}
	for _, s := range gatherSamples(t, other, 10, 32, encoding.CardExact) {
		graphs = append(graphs, s.Graph)
	}
	m := New(smallConfig())
	got := m.PredictBatch(graphs)
	for i, g := range graphs {
		if want := m.tapePredict(g); got[i] != want {
			t.Fatalf("mixed batch item %d: %v != %v", i, got[i], want)
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	m := New(smallConfig())
	if got := m.PredictBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
}
