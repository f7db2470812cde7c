package costmodel

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// fineTuneDigest is SHA-256 over a zero-shot adapter's weight bits and
// the loss curve of the fine-tune that produced them.
func fineTuneDigest(est Estimator, rep *FitReport) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range est.(*ZeroShot).Model().Params() {
		for _, v := range p.Val.Data {
			put(v)
		}
	}
	for _, l := range rep.EpochLoss {
		put(l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCopyFineTuneBitwise pins what the few-shot mode computes from a
// copy of a fitted zero-shot model. A copy made through the model file
// (Save, then Load) is fine-tuned and its weights digested against
// testdata/finetune.golden; that copy is then copied through the file
// again and fine-tuned again. Clone must give the same bits at both
// steps: a clone starts where a loaded model starts (default training
// hyperparameters, the generator after initialisation, no optimizer
// history), whatever the model it copies has trained. UPDATE_TRAIN_GOLDENS=1
// rewrites the golden after a deliberate change to the arithmetic.
func TestCopyFineTuneBitwise(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden was recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	f := sharedFixture(t)
	ctx := context.Background()
	base, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Fit(ctx, f.train); err != nil {
		t.Fatal(err)
	}
	viaFile := func(est Estimator) Estimator {
		var buf bytes.Buffer
		if err := Save(&buf, est); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	viaClone := func(est Estimator) Estimator {
		return est.(Tuner).Clone()
	}
	fineTune := func(est Estimator) string {
		rep, err := est.(Tuner).FineTune(ctx, f.eval, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fineTuneDigest(est, rep)
	}
	var digests [2][2]string
	for i, copyOf := range []func(Estimator) Estimator{viaFile, viaClone} {
		first := copyOf(base)
		digests[i][0] = fineTune(first)
		digests[i][1] = fineTune(copyOf(first))
	}
	if digests[1] != digests[0] {
		t.Fatalf("fine-tuning a clone gives %v, a loaded copy %v", digests[1], digests[0])
	}
	got := fmt.Sprintf("zeroshot load+finetune %s\nzeroshot load+finetune+load+finetune %s\n", digests[0][0], digests[0][1])
	path := filepath.Join("testdata", "finetune.golden")
	if os.Getenv("UPDATE_TRAIN_GOLDENS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("fine-tuned copies differ from %s:\nwant\n%sgot\n%s", path, want, got)
	}
}
