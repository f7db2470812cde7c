package bundle_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

func TestBuildOpenRoundTrip(t *testing.T) {
	est := &scaleEstimator{Scale: 2.5}
	shadow := &bundle.ShadowMetrics{
		Database:   "imdb",
		OldMedianQ: 4.0,
		NewMedianQ: 1.1,
		Holdout:    8,
		At:         time.Now().UTC(),
	}
	data, man := buildBundle(t, est, 7, bundle.Meta{
		Fingerprint: "adapt:imdb",
		Samples:     64,
		Shadow:      shadow,
	})

	if man.Estimator != testEstimatorName || man.Revision != 7 {
		t.Fatalf("manifest = %+v", man)
	}
	if man.Fingerprint != "adapt:imdb" || man.Samples != 64 || man.Shadow == nil {
		t.Fatalf("metadata lost: %+v", man)
	}
	if man.SHA256 == "" || man.CreatedAt.IsZero() {
		t.Fatalf("manifest missing derived fields: %+v", man)
	}

	b, err := bundle.Open(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if b.Manifest.Revision != 7 || b.Manifest.SHA256 != man.SHA256 {
		t.Fatalf("opened manifest = %+v, want %+v", b.Manifest, man)
	}
	if b.Manifest.Shadow == nil || b.Manifest.Shadow.NewMedianQ != 1.1 {
		t.Fatalf("shadow metrics lost: %+v", b.Manifest.Shadow)
	}
	// The decoded estimator predicts bitwise the same as the original.
	in := []costmodel.PlanInput{{OptimizerCost: 1234}}
	want, _ := est.PredictBatch(context.Background(), in)
	got, err := b.Estimator.PredictBatch(context.Background(), in)
	if err != nil || got[0] != want[0] {
		t.Fatalf("decoded estimator predicts %v (err %v), want %v", got, err, want)
	}

	// Inspect agrees without decoding.
	insp, err := bundle.Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if insp.SHA256 != man.SHA256 || insp.Revision != man.Revision {
		t.Fatalf("Inspect = %+v, want %+v", insp, man)
	}
}

// TestBuildStoresAndOpensCompressed: Build writes the payload stored
// (its bytes appear verbatim in the archive), and a bundle whose gzip
// stream is deflated — what Build wrote before, and what rawArchive
// writes — still opens to the same estimator.
func TestBuildStoresAndOpensCompressed(t *testing.T) {
	est := &scaleEstimator{Scale: 1.75}
	data, _ := buildBundle(t, est, 3, bundle.Meta{})
	man, payload := dissect(t, data)
	if !bytes.Contains(data, payload) {
		t.Fatal("Build deflated the payload; it should be stored")
	}
	compressed := rawArchive(t, marshalManifest(t, man), payload)
	b, err := bundle.Open(bytes.NewReader(compressed))
	if err != nil {
		t.Fatalf("Open of a deflated bundle: %v", err)
	}
	in := []costmodel.PlanInput{{OptimizerCost: 99}}
	want, _ := est.PredictBatch(context.Background(), in)
	if got, err := b.Estimator.PredictBatch(context.Background(), in); err != nil || got[0] != want[0] {
		t.Fatalf("deflated bundle's estimator predicts %v (err %v), want %v", got, err, want)
	}
}

func TestBuildValidates(t *testing.T) {
	var buf bytes.Buffer
	if _, err := bundle.Build(&buf, nil, 1, bundle.Meta{}); err == nil {
		t.Fatal("Build accepted a nil estimator")
	}
	if _, err := bundle.Build(&buf, &scaleEstimator{Scale: 1}, 0, bundle.Meta{}); err == nil {
		t.Fatal("Build accepted revision 0")
	}
}

func TestBuildDefaultFingerprint(t *testing.T) {
	_, man := buildBundle(t, &scaleEstimator{Scale: 1}, 1, bundle.Meta{})
	if man.Fingerprint == "" {
		t.Fatal("no default fingerprint")
	}
	if want := "sha256:" + man.SHA256[:16]; man.Fingerprint != want {
		t.Fatalf("fingerprint = %q, want %q", man.Fingerprint, want)
	}
}

// TestOpenRefusesCorruption drives every malformed-archive class through
// Open: all must return ErrBadBundle, none may panic.
func TestOpenRefusesCorruption(t *testing.T) {
	valid, _ := buildBundle(t, &scaleEstimator{Scale: 3}, 5, bundle.Meta{})
	man, payload := dissect(t, valid)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not gzip", []byte("definitely not a gzip archive")},
		{"truncated half", valid[:len(valid)/2]},
		{"truncated tail", valid[:len(valid)-4]},
		{"checksum mismatch", func() []byte {
			bad := append([]byte(nil), payload...)
			bad[len(bad)-1] ^= 0xff
			return rawArchive(t, marshalManifest(t, man), bad)
		}()},
		{"manifest estimator mismatch", func() []byte {
			m := man
			m.Estimator = costmodel.NameScaledCost
			return rawArchive(t, marshalManifest(t, m), payload)
		}()},
		{"manifest names no estimator", func() []byte {
			m := man
			m.Estimator = ""
			return rawArchive(t, marshalManifest(t, m), payload)
		}()},
		{"manifest revision zero", func() []byte {
			m := man
			m.Revision = 0
			return rawArchive(t, marshalManifest(t, m), payload)
		}()},
		{"malformed manifest json", rawArchive(t, []byte("{nope"), payload)},
		{"tail past the cap", func() []byte {
			// Zeros after the tar's end, as a second gzip member.
			buf := bytes.NewBuffer(append([]byte(nil), valid...))
			gz := gzip.NewWriter(buf)
			gz.Write(make([]byte, bundle.MaxManifest+1))
			if err := gz.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}()},
		{"undecodable payload", func() []byte {
			// Rewrap fixes the checksum over the garbage, so only the
			// load step is left to refuse.
			var buf bytes.Buffer
			if err := bundle.Rewrap(&buf, man, []byte("not a costmodel payload")); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := bundle.Open(bytes.NewReader(tc.data)); !errors.Is(err, bundle.ErrBadBundle) {
				t.Fatalf("Open(%s) err = %v, want ErrBadBundle", tc.name, err)
			}
		})
	}
}

// TestOpenRefusesPayloadNameMismatch covers the subtler mismatch: the
// manifest and checksum are internally consistent but the payload's own
// self-describing header names a different estimator.
func TestOpenRefusesPayloadNameMismatch(t *testing.T) {
	valid, _ := buildBundle(t, &scaleEstimator{Scale: 3}, 5, bundle.Meta{})
	man, payload := dissect(t, valid)

	// Rewrap recomputes the checksum, so the only failing check left is
	// the manifest-vs-payload estimator comparison.
	man.Estimator = costmodel.NameScaledCost
	var buf bytes.Buffer
	if err := bundle.Rewrap(&buf, man, payload); err != nil {
		t.Fatal(err)
	}
	_, err := bundle.Open(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, bundle.ErrBadBundle) {
		t.Fatalf("err = %v, want ErrBadBundle", err)
	}
}

// TestOpenRefusesOversizedPayload: a model entry one byte over the cap,
// all zeros, gzips to a few kilobytes. Open must refuse it with
// ErrBadBundle without inflating it into memory first.
func TestOpenRefusesOversizedPayload(t *testing.T) {
	valid, _ := buildBundle(t, &scaleEstimator{Scale: 3}, 5, bundle.Meta{})
	man, _ := dissect(t, valid)
	bomb := rawArchive(t, marshalManifest(t, man), make([]byte, bundle.MaxPayload+1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := bundle.Open(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, bundle.ErrBadBundle) {
		t.Fatalf("Open of a %d-byte archive inflating past the cap: err = %v, want ErrBadBundle", len(bomb), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bundle.MaxPayload/16 {
		t.Fatalf("refusing the oversized payload allocated %d bytes, want far less than the %d-byte cap", alloc, bundle.MaxPayload)
	}
}

// TestInspectAllocatesItsPayloadOnce: reading the model entry of the
// largest bundle the width cap allows (zero-shot at width 512, about
// 21 MB) costs about one payload of allocation, not the repeated
// doublings of a read that does not know its length.
func TestInspectAllocatesItsPayloadOnce(t *testing.T) {
	est, err := costmodel.New(costmodel.NameZeroShot, costmodel.Options{Hidden: 512})
	if err != nil {
		t.Fatal(err)
	}
	valid, _ := buildBundle(t, est, 1, bundle.Meta{})
	_, payload := dissect(t, valid)
	est = nil
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = bundle.Inspect(bytes.NewReader(valid))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.5*float64(len(payload)) {
		t.Fatalf("Inspect of a %d-byte payload allocated %d bytes, want under 1.5 times the payload", len(payload), alloc)
	}
}

// FuzzOpen feeds the bundle reader bytes it did not write: a
// distributor opens whatever the store holds. Open may refuse them, but
// must not panic, and a bundle it does open must rebuild into one it
// opens again.
//
// The corpus under testdata/fuzz/FuzzOpen is a real bundle of a width-8
// zero-shot model and one of the test estimator;
// UPDATE_FUZZ_CORPUS=1 go test -run FuzzOpen rewrites both after a
// change to the bundle or model-file format.
func FuzzOpen(f *testing.F) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
		zs, err := costmodel.New(costmodel.NameZeroShot, costmodel.Options{Hidden: 8, Seed: 7})
		if err != nil {
			f.Fatal(err)
		}
		dir := filepath.Join("testdata", "fuzz", "FuzzOpen")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			f.Fatal(err)
		}
		for name, est := range map[string]costmodel.Estimator{"seed_zeroshot": zs, "seed_test_estimator": &scaleEstimator{Scale: 2.5}} {
			var buf bytes.Buffer
			if _, err := bundle.Build(&buf, est, 3, bundle.Meta{Fingerprint: "fuzz"}); err != nil {
				f.Fatal(err)
			}
			entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", buf.Bytes())
			if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
				f.Fatal(err)
			}
		}
		f.Skip("corpus rewritten")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := bundle.Open(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := bundle.Build(&buf, b.Estimator, b.Manifest.Revision, bundle.Meta{Fingerprint: b.Manifest.Fingerprint}); err != nil {
			t.Fatalf("opened revision %d does not rebuild: %v", b.Manifest.Revision, err)
		}
		if _, err := bundle.Open(&buf); err != nil {
			t.Fatalf("opened revision %d rebuilds into a bundle Open refuses: %v", b.Manifest.Revision, err)
		}
	})
}
