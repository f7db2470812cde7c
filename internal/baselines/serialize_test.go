package baselines

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// saveLoadFile round-trips a model through a real file. Files matter:
// *os.File is not an io.ByteReader, so this exercises the stacked-decoder
// guard that a bytes.Buffer round trip would silently skip.
func saveLoadFile(t *testing.T, save func(f *os.File) error, load func(f *os.File) error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if err := load(rf); err != nil {
		t.Fatal(err)
	}
}

func TestMSCNSaveLoadFile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	m := NewMSCN(cfg)
	feats := &encoding.MSCNFeatures{Tables: [][]float64{make([]float64, encoding.MaxVocabTables)}}
	feats.Tables[0][3] = 1
	want := m.Predict(feats)

	var loaded *Net[*encoding.MSCNFeatures]
	saveLoadFile(t,
		func(f *os.File) error { return m.Save(f) },
		func(f *os.File) error { var err error; loaded, err = Load(f, NewMSCN); return err })
	if got := loaded.Predict(feats); got != want {
		t.Fatalf("loaded MSCN predicts %v, want %v", got, want)
	}
}

func TestE2ESaveLoadFile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 8
	m := NewE2E(cfg)
	root := &encoding.E2ENode{Feat: make([]float64, encoding.E2ENodeDim)}
	root.Feat[0] = 1
	want := m.Predict(root)

	var loaded *Net[*encoding.E2ENode]
	saveLoadFile(t,
		func(f *os.File) error { return m.Save(f) },
		func(f *os.File) error { var err error; loaded, err = Load(f, NewE2E); return err })
	if got := loaded.Predict(root); got != want {
		t.Fatalf("loaded E2E predicts %v, want %v", got, want)
	}
}

func TestScaledCostSaveLoadFile(t *testing.T) {
	var m ScaledCost
	if err := m.Fit([]float64{10, 100, 1000}, []float64{0.1, 0.9, 8}); err != nil {
		t.Fatal(err)
	}
	want := m.Predict(500)

	var loaded *ScaledCost
	saveLoadFile(t,
		func(f *os.File) error { return m.Save(f) },
		func(f *os.File) error { var err error; loaded, err = LoadScaledCost(f); return err })
	if got := loaded.Predict(500); got != want {
		t.Fatalf("loaded ScaledCost predicts %v, want %v", got, want)
	}
}

// TestLoadRejectsHostileWidth feeds both neural loaders a bare header
// declaring a width no model has: each must refuse it before sizing a
// network from it (1<<31 would ask for far more memory than exists).
func TestLoadRejectsHostileWidth(t *testing.T) {
	loaders := map[string]func(io.Reader) error{
		"mscn": func(r io.Reader) error { _, err := Load(r, NewMSCN); return err },
		"e2e":  func(r io.Reader) error { _, err := Load(r, NewE2E); return err },
	}
	for name, load := range loaders {
		for _, hidden := range []int{0, -1, nn.MaxWidth + 1, 1 << 31} {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(savedNet{Hidden: hidden}); err != nil {
				t.Fatal(err)
			}
			err := load(&buf)
			if err == nil || !strings.Contains(err.Error(), "width") {
				t.Fatalf("%s: header Hidden=%d loaded with err %v, want a width error", name, hidden, err)
			}
		}
	}
}
