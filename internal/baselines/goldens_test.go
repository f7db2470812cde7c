package baselines

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// trainDigest is SHA-256 over every trained parameter's bits plus a few
// prediction bits.
func trainDigest(params []*nn.Param, preds []float64) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range params {
		for _, v := range p.Val.Data {
			put(v)
		}
	}
	for _, v := range preds {
		put(v)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTrainGoldens pins the tape-trained baselines the way
// zeroshot.TestTrainGoldens pins the zero-shot model: MSCN and E2E run
// every tape operation the graph model does not (Const inputs, the
// empty-set constant, mean pooling over Sum), so a tape rewrite that
// keeps the zero-shot bits but moves theirs fails here. The digests in
// testdata/train.golden were recorded from the closure-based tape;
// UPDATE_TRAIN_GOLDENS=1 rewrites them after a deliberate change to the
// arithmetic. amd64 only, for the reason given there.
func TestTrainGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("train goldens were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	recs, _, vocab, st := imdbRecords(t, 60, 5)
	var got strings.Builder

	mf := encoding.NewMSCNFeaturizer(vocab, st)
	var ms []Sample[*encoding.MSCNFeatures]
	for _, r := range recs {
		ms = append(ms, Sample[*encoding.MSCNFeatures]{X: mf.Featurize(r.Query), RuntimeSec: r.RuntimeSec})
	}
	mcfg := DefaultConfig()
	mcfg.Epochs = 3
	mscn := NewMSCN(mcfg)
	if err := mscn.Train(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	var preds []float64
	for _, s := range ms[:4] {
		preds = append(preds, mscn.Predict(s.X))
	}
	fmt.Fprintf(&got, "mscn train %s\n", trainDigest(mscn.Params(), preds))

	ef := encoding.NewE2EFeaturizer(vocab, st)
	var es []Sample[*encoding.E2ENode]
	for _, r := range recs {
		es = append(es, Sample[*encoding.E2ENode]{X: ef.Featurize(r.Plan), RuntimeSec: r.RuntimeSec})
	}
	ecfg := DefaultConfig()
	ecfg.Epochs = 3
	e2e := NewE2E(ecfg)
	if err := e2e.Train(context.Background(), es); err != nil {
		t.Fatal(err)
	}
	preds = preds[:0]
	for _, s := range es[:4] {
		preds = append(preds, e2e.Predict(s.X))
	}
	fmt.Fprintf(&got, "e2e train %s\n", trainDigest(e2e.Params(), preds))

	path := filepath.Join("testdata", "train.golden")
	if os.Getenv("UPDATE_TRAIN_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("trained bits differ from %s:\nwant %sgot  %s", path, want, got.String())
	}
}
