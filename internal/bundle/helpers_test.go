package bundle_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/gob"
	"encoding/json"
	"io"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// scaleEstimator is the test model: predicts Scale·truth(cost) where
// truth(cost) = 1e-6·(cost+1), so a bundle's behaviour is pinned by one
// float and two copies are bitwise-comparable through their predictions.
// It registers under "bundletest" so costmodel.Load — and therefore
// bundle.Open — can reconstruct it from the archive payload.
type scaleEstimator struct {
	Scale float64
}

const testEstimatorName = "bundletest"

func init() {
	costmodel.Register(testEstimatorName, costmodel.Factory{
		New: func(costmodel.Options) (costmodel.Estimator, error) {
			return &scaleEstimator{Scale: 1}, nil
		},
		Load: func(r io.Reader) (costmodel.Estimator, error) {
			var e scaleEstimator
			if err := gob.NewDecoder(r).Decode(&e); err != nil {
				return nil, err
			}
			return &e, nil
		},
	})
}

func truth(cost float64) float64 { return 1e-6 * (cost + 1) }

func (e *scaleEstimator) Name() string { return testEstimatorName }

func (e *scaleEstimator) Fit(ctx context.Context, samples []costmodel.Sample) (*costmodel.FitReport, error) {
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

func (e *scaleEstimator) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(ins))
	for i, in := range ins {
		out[i] = e.Scale * truth(in.OptimizerCost)
	}
	return out, nil
}

func (e *scaleEstimator) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e)
}

func (e *scaleEstimator) Clone() costmodel.Tuner {
	return &scaleEstimator{Scale: e.Scale}
}

func (e *scaleEstimator) FineTune(ctx context.Context, samples []costmodel.Sample, epochs int, lr float64) (*costmodel.FitReport, error) {
	// Recalibrate exactly: median-free single-ratio fit is enough for a
	// deterministic test model.
	if len(samples) > 0 {
		s := samples[0]
		e.Scale *= s.RuntimeSec / (e.Scale * truth(s.OptimizerCost))
	}
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

// buildBundle builds est into archive bytes at the given revision.
func buildBundle(t *testing.T, est costmodel.Estimator, rev int64, meta bundle.Meta) ([]byte, bundle.Manifest) {
	t.Helper()
	var buf bytes.Buffer
	man, err := bundle.Build(&buf, est, rev, meta)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return buf.Bytes(), man
}

// rawArchive assembles an archive from arbitrary manifest JSON and
// payload bytes WITHOUT any checksum fixup — the corruption-injection
// primitive behind the refusal tests.
func rawArchive(t *testing.T, manJSON, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, e := range []struct {
		name string
		data []byte
	}{{"manifest.json", manJSON}, {"model.gob", payload}} {
		if err := tw.WriteHeader(&tar.Header{Name: e.name, Mode: 0o644, Size: int64(len(e.data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(e.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dissect pulls the manifest and payload back out of a valid archive so
// tests can mutate one part and reassemble with rawArchive.
func dissect(t *testing.T, data []byte) (bundle.Manifest, []byte) {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	var man bundle.Manifest
	var payload []byte
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		switch hdr.Name {
		case "manifest.json":
			if err := json.Unmarshal(b, &man); err != nil {
				t.Fatal(err)
			}
		case "model.gob":
			payload = b
		}
	}
	return man, payload
}

// marshalManifest JSON-encodes a manifest for rawArchive.
func marshalManifest(t *testing.T, man bundle.Manifest) []byte {
	t.Helper()
	b, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
