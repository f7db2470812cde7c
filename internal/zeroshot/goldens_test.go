package zeroshot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// trainDigest is SHA-256 over every trained parameter's bits, the
// EpochLoss bits and four prediction bits — one line of the golden.
func trainDigest(m *Model, losses []float64, samples []Sample) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range m.Params() {
		for _, v := range p.Val.Data {
			put(v)
		}
	}
	for _, l := range losses {
		put(l)
	}
	for _, s := range samples[:4] {
		put(m.Predict(s.Graph))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTrainGoldens pins what training computes, not just that it agrees
// with itself: the digest of the trained weights, loss curve and a few
// predictions for Train and Train+FineTune, message-passing and
// flat-sum, at GOMAXPROCS 1, 2 and 4, against testdata/train.golden —
// recorded from the closure-based tape and the i-k-j kernels before
// either was rewritten. A kernel, tape or trainer change that moves one
// bit of one weight fails here. UPDATE_TRAIN_GOLDENS=1 rewrites the
// file after a deliberate change to the arithmetic; say why in the
// commit.
//
// The golden is amd64's: on targets where Go fuses x*y+z into an FMA
// the recorded code itself rounds differently, so there the within-
// platform pins (nn's reference kernels, the width-invariance and
// fused≡tape tests) carry the contract. amd64 never fuses — gc keeps
// x*y+z two roundings at every GOAMD64 level (Go 1.24, checked at v3),
// and the assembly has no FMA — so the golden holds at v3 too.
func TestTrainGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("train goldens were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	samples := gatherSamples(t, db, 52, 17, encoding.CardExact)
	var got strings.Builder
	for _, flat := range []bool{false, true} {
		for _, fineTune := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
					cfg := smallConfig()
					cfg.Epochs = 3
					cfg.FlatSum = flat
					m := New(cfg)
					res, err := m.Train(samples)
					if err != nil {
						t.Fatal(err)
					}
					losses := res.EpochLoss
					name := "train"
					if fineTune {
						ft, err := m.FineTune(samples[:len(samples)/2], 2, 0)
						if err != nil {
							t.Fatal(err)
						}
						losses = append(losses, ft.EpochLoss...)
						name = "train+finetune"
					}
					arch := "message-passing"
					if flat {
						arch = "flat-sum"
					}
					fmt.Fprintf(&got, "zeroshot %s %s cpu=%d %s\n", arch, name, workers, trainDigest(m, losses, samples))
				}()
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "train.golden"), got.String())
}

// TestTrainGoldensFromTapeOracle keeps the oracle honest: the per-sample
// tape trainer of oracle_test.go, serial, reproduces the golden's cpu=1
// lines — so when TestPackedGradientsMatchTape holds the packed trainer
// to it, it holds it to the bits the golden was recorded from.
func TestTrainGoldensFromTapeOracle(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("train goldens were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	samples := gatherSamples(t, db, 52, 17, encoding.CardExact)
	want, err := os.ReadFile(filepath.Join("testdata", "train.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, flat := range []bool{false, true} {
		for _, fineTune := range []bool{false, true} {
			cfg := smallConfig()
			cfg.FlatSum = flat
			m := New(cfg)
			losses := m.tapeTrain(samples, 3, cfg.LR)
			name := "train"
			if fineTune {
				losses = append(losses, m.tapeTrain(samples[:len(samples)/2], 2, cfg.LR/4)...)
				name = "train+finetune"
			}
			arch := "message-passing"
			if flat {
				arch = "flat-sum"
			}
			line := fmt.Sprintf("zeroshot %s %s cpu=1 %s\n", arch, name, trainDigest(m, losses, samples))
			if !strings.Contains(string(want), line) {
				t.Fatalf("the tape oracle's %s %s digest is not the golden's:\n%s", arch, name, line)
			}
		}
	}
}

// checkGolden compares got with the file, or rewrites the file under
// UPDATE_TRAIN_GOLDENS=1.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_TRAIN_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
		w, g := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(w) && i < len(g); i++ {
			if w[i] != g[i] {
				t.Fatalf("trained bits differ from %s at line %d:\nwant %s\ngot  %s", path, i+1, w[i], g[i])
			}
		}
		t.Fatalf("trained bits differ from %s in length: want %d lines, got %d", path, len(w), len(g))
	}
}
