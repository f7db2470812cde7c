package costmodel

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// pinnedModels are the estimators whose saved-model files are checked in
// under testdata/models: the neural baselines untrained at a small width
// from a fixed seed (the pin is the format, not the accuracy), and the
// regression baseline fitted on the fixture's training samples.
var pinnedModels = []string{NameMSCN, NameE2E, NameScaledCost}

// pinnedInputs is how many of the fixture's evaluation inputs the
// prediction golden covers.
const pinnedInputs = 8

// TestModelFilesPinned loads model files written by an earlier commit's
// Save through Load, and compares the float bits of their predictions on
// fixed inputs with testdata/models/predictions.golden. A round trip
// within one commit cannot see a format change; this test can. After a
// deliberate format change, UPDATE_MODEL_FILES=1 rewrites the files and
// the golden: read the diff, and say why in the commit.
func TestModelFilesPinned(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	ins := Inputs(f.eval[:pinnedInputs])
	dir := filepath.Join("testdata", "models")
	update := os.Getenv("UPDATE_MODEL_FILES") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var got strings.Builder
	for _, name := range pinnedModels {
		path := filepath.Join(dir, name+".gob")
		if update {
			est, err := New(name, Options{Hidden: 8, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if name == NameScaledCost {
				if _, err := est.Fit(ctx, f.train); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := Save(&buf, est); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if est.Name() != name {
			t.Fatalf("%s loads as %q, want %q", path, est.Name(), name)
		}
		preds, err := est.PredictBatch(ctx, ins)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range preds {
			fmt.Fprintf(&got, "%s %d %016x\n", name, i, math.Float64bits(p))
		}
	}

	golden := filepath.Join(dir, "predictions.golden")
	if update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("predictions of the pinned model files differ from %s:\nwant\n%sgot\n%s", golden, want, got.String())
	}
}

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadDecodesInPlace bounds what building, loading and cloning a
// model allocate, at width 256. New allocates the weights and their
// gradients (2.0 times the weights' bytes) and no optimizer state: with
// Adam's two moments beside them it read about 4 times. The parameters
// decode straight into the freshly built network, so a load costs New's
// allocation plus gob's one buffer for the file (1.01 times it);
// decoding a second copy of every tensor aside and then copying it in
// read 1.90 times. (Above 10 MB gob reads a message in growing chunks:
// at width 512 the two read 2.18 and 3.07.) A clone copies values into
// a new model with no file-sized buffer, so it allocates what New does;
// through Save and Load it allocated 11.8 times the weights' bytes.
func TestLoadDecodesInPlace(t *testing.T) {
	const hidden = 256
	est, err := New(NameZeroShot, Options{Hidden: hidden})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, est); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	weights := 0
	for _, p := range est.(*ZeroShot).Model().Params() {
		weights += 8 * len(p.Val.Data)
	}
	built := allocatedBytes(func() { _, err = New(NameZeroShot, Options{Hidden: hidden}) })
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(built) / float64(weights); ratio > 2.1 {
		t.Fatalf("New allocates %.2f x the %d B of weights, want at most 2.1 x", ratio, weights)
	}
	loaded := allocatedBytes(func() { _, err = Load(bytes.NewReader(file)) })
	if err != nil {
		t.Fatal(err)
	}
	if ratio := (float64(loaded) - float64(built)) / float64(len(file)); ratio > 1.5 {
		t.Fatalf("Load allocates New's %d B + %.2f x the %d B file, want at most 1.5 x", built, ratio, len(file))
	}
	tuner := est.(Tuner)
	cloned := allocatedBytes(func() { tuner.Clone() })
	if limit := 1.01 * float64(built); float64(cloned) > limit {
		t.Fatalf("Clone allocates %d B, want at most New's %d B + 1 %%", cloned, built)
	}
}
