// Package bundle turns adapted cost models into fleet-wide continuous
// deployment. The adaptation loop (internal/adapt) is replica-local: a
// fine-tune accepted on the replica owning a database never reaches its
// ring successors, so a failover serves a stale generation and silently
// regresses q-error. This package closes that gap with the
// download/activate/rollback loop production policy engines use (OPA's
// bundle plugin is the shape):
//
//   - A bundle is ONE archive (gzip'd tar) wrapping the existing
//     self-describing costmodel.Save payload plus a Manifest: estimator
//     name, monotonically increasing revision, SHA-256 checksum of the
//     payload, training fingerprint, sample count, and the shadow-eval
//     metrics that justified the swap. Open verifies strictly — wrong
//     magic, truncated archive, checksum mismatch, or an estimator whose
//     self-describing header disagrees with the manifest all refuse.
//   - A Publisher (publisher.go) writes bundles to a pluggable Store
//     (local directory now; the interface leaves room for HTTP/object
//     stores), assigns revisions serially, and prunes to a retained
//     history — the accept path of adapt.Loop hooks into it. Its
//     Rollback republishes a retained revision as a new head.
//   - A Distributor (distributor.go) runs on every replica: it polls the
//     store with a revision short-circuit (the ETag idiom), verifies,
//     and activates new revisions through the serving session's hot-swap
//     path, with exponential backoff on failure.
//
// The archive layout is two entries, manifest first:
//
//	manifest.json   the Manifest, plain JSON
//	model.gob       the costmodel.Save payload (self-describing header +
//	                estimator parameters)
//
// Everything in this file is the format itself: Build, Open, Inspect.
package bundle

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// Archive entry names. manifestEntry must come first so Inspect can
// stream; Build always writes that order and Open enforces it.
const (
	manifestEntry = "manifest.json"
	modelEntry    = "model.gob"
)

// maxManifest caps the manifest entry and, as padding, whatever follows
// the tar's end inside the gzip stream.
const maxManifest = 1 << 20

// ErrBadBundle marks every verification failure on open: truncated or
// malformed archives, checksum mismatches, manifest/payload estimator
// disagreement, and nonsense revisions. Callers gate activation on it
// (errors.Is) — a bundle that fails to open must never reach a session.
var ErrBadBundle = errors.New("bundle: verification failed")

// ShadowMetrics records the shadow evaluation that justified publishing
// a revision: the old-vs-new holdout comparison the adaptation loop ran
// before hot-swapping. It mirrors adapt.ShadowEval without importing it
// (the adapt package is a client of this one, not a dependency).
type ShadowMetrics struct {
	// Database is the feedback window that triggered the fine-tune.
	Database string `json:"db"`
	// OldMedianQ and NewMedianQ are the serving vs. candidate median
	// q-errors on the holdout slice.
	OldMedianQ float64 `json:"old_median_qerror"`
	NewMedianQ float64 `json:"new_median_qerror"`
	// Holdout is how many held-out samples the verdict was computed on.
	Holdout int `json:"holdout"`
	// At is when the shadow evaluation concluded.
	At time.Time `json:"at"`
}

// Manifest is a bundle's self-description — the part an operator (or
// `zsdb bundle inspect`) reads without deserializing the model.
type Manifest struct {
	// Estimator is the costmodel registry name of the wrapped model. It
	// must match the payload's own self-describing header; Open checks.
	Estimator string `json:"estimator"`
	// Revision is the bundle's position in the store's monotonically
	// increasing sequence (>= 1). Distributors refuse regressions: a
	// manifest whose revision is not strictly above the activated one
	// never activates through the poll path.
	Revision int64 `json:"revision"`
	// SHA256 is the hex checksum of the model payload; Open recomputes
	// and compares before the payload is ever decoded.
	SHA256 string `json:"sha256"`
	// Fingerprint identifies the training provenance (e.g. "adapt:imdb"
	// for an accepted fine-tune on the imdb feedback window, or the
	// source file of a CLI-built bundle). Defaults to a payload checksum
	// prefix when the builder supplies none.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Samples counts the training samples behind this revision (the
	// drained feedback window of an adaptation publish; 0 when unknown).
	Samples int `json:"samples,omitempty"`
	// Shadow carries the accept verdict for revisions published by the
	// adaptation loop; nil for hand-built bundles.
	Shadow *ShadowMetrics `json:"shadow,omitempty"`
	// RollbackOf names the retained revision whose payload this bundle
	// re-publishes, when the revision is a rollback; RolledBackFrom is
	// the head revision it supersedes. Both 0 for ordinary revisions.
	RollbackOf     int64 `json:"rollback_of,omitempty"`
	RolledBackFrom int64 `json:"rolled_back_from,omitempty"`
	// CreatedAt is when the bundle was built.
	CreatedAt time.Time `json:"created_at"`
}

// Meta is the caller-supplied slice of a Manifest — what Build and
// Publisher.Publish cannot derive themselves.
type Meta struct {
	Fingerprint string
	Samples     int
	Shadow      *ShadowMetrics
}

// Bundle is one verified, opened bundle: the manifest plus the decoded
// estimator, ready to activate.
type Bundle struct {
	Manifest  Manifest
	Estimator costmodel.Estimator
}

// Build writes est as a bundle with the given revision and metadata and
// returns the completed manifest. The payload is serialized through the
// self-describing costmodel.Save, so Open can cross-check the manifest's
// estimator name against the payload's own header.
func Build(w io.Writer, est costmodel.Estimator, revision int64, meta Meta) (Manifest, error) {
	if est == nil {
		return Manifest{}, fmt.Errorf("bundle: Build needs an estimator")
	}
	if revision < 1 {
		return Manifest{}, fmt.Errorf("bundle: revision must be >= 1, got %d", revision)
	}
	var payload bytes.Buffer
	if err := costmodel.Save(&payload, est); err != nil {
		return Manifest{}, fmt.Errorf("bundle: serialize %s: %w", est.Name(), err)
	}
	man := Manifest{
		Estimator:   est.Name(),
		Revision:    revision,
		SHA256:      checksum(payload.Bytes()),
		Fingerprint: meta.Fingerprint,
		Samples:     meta.Samples,
		Shadow:      meta.Shadow,
		CreatedAt:   time.Now().UTC(),
	}
	if man.Fingerprint == "" {
		man.Fingerprint = "sha256:" + man.SHA256[:16]
	}
	if err := writeArchive(w, man, payload.Bytes()); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// Rewrap re-publishes an already-verified payload under a new manifest —
// the rollback path: same bytes, fresh revision. The payload checksum is
// recomputed, so a caller cannot rewrap bytes it has not read.
func Rewrap(w io.Writer, man Manifest, payload []byte) error {
	if man.Revision < 1 {
		return fmt.Errorf("bundle: revision must be >= 1, got %d", man.Revision)
	}
	man.SHA256 = checksum(payload)
	return writeArchive(w, man, payload)
}

// writeArchive lays the manifest and payload down as a gzip'd tar whose
// deflate blocks are stored, not compressed: a model payload is float
// bits, which deflate shrinks by under a tenth at several times the cost
// of the rest of a build and an open. The gzip CRC still covers every
// byte, and readArchive reads stored and compressed archives alike.
func writeArchive(w io.Writer, man Manifest, payload []byte) error {
	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("bundle: encode manifest: %w", err)
	}
	gz, err := gzip.NewWriterLevel(w, gzip.NoCompression)
	if err != nil {
		return fmt.Errorf("bundle: gzip: %w", err)
	}
	tw := tar.NewWriter(gz)
	for _, entry := range []struct {
		name string
		data []byte
	}{{manifestEntry, manJSON}, {modelEntry, payload}} {
		hdr := &tar.Header{
			Name:    entry.name,
			Mode:    0o644,
			Size:    int64(len(entry.data)),
			ModTime: man.CreatedAt,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("bundle: write %s header: %w", entry.name, err)
		}
		if _, err := tw.Write(entry.data); err != nil {
			return fmt.Errorf("bundle: write %s: %w", entry.name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("bundle: close archive: %w", err)
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("bundle: close gzip: %w", err)
	}
	return nil
}

// checksum returns the hex SHA-256 of data.
func checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// badf wraps a format/verification failure in ErrBadBundle.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadBundle, fmt.Sprintf(format, args...))
}

// readArchive parses and structurally verifies one archive: both entries
// present in order, manifest well-formed, payload checksum matching. The
// payload is returned raw — Open decodes it, Inspect does not.
func readArchive(r io.Reader) (Manifest, []byte, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return Manifest{}, nil, badf("not a gzip archive: %v", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)

	hdr, err := tr.Next()
	if err != nil {
		return Manifest{}, nil, badf("truncated archive: %v", err)
	}
	if hdr.Name != manifestEntry {
		return Manifest{}, nil, badf("first entry is %q, want %q", hdr.Name, manifestEntry)
	}
	var man Manifest
	if err := json.NewDecoder(io.LimitReader(tr, maxManifest)).Decode(&man); err != nil {
		return Manifest{}, nil, badf("malformed manifest: %v", err)
	}
	if man.Estimator == "" {
		return Manifest{}, nil, badf("manifest names no estimator")
	}
	if man.Revision < 1 {
		return Manifest{}, nil, badf("manifest revision %d is not positive", man.Revision)
	}

	hdr, err = tr.Next()
	if err != nil {
		return Manifest{}, nil, badf("truncated archive (no %s): %v", modelEntry, err)
	}
	if hdr.Name != modelEntry {
		return Manifest{}, nil, badf("second entry is %q, want %q", hdr.Name, modelEntry)
	}
	// The model file's cap keeps a small archive from inflating into an
	// unbounded read before the checksum refuses it; within it, the
	// header's size is read into one buffer of exactly that size.
	if hdr.Size < 0 || hdr.Size > costmodel.MaxFileSize {
		return Manifest{}, nil, badf("model payload of %d bytes is outside the %d-byte cap", hdr.Size, costmodel.MaxFileSize)
	}
	payload := make([]byte, hdr.Size)
	if _, err := io.ReadFull(tr, payload); err != nil {
		return Manifest{}, nil, badf("truncated model payload: %v", err)
	}
	if _, err := tr.Next(); err != io.EOF {
		if err == nil {
			return Manifest{}, nil, badf("unexpected extra archive entry")
		}
		return Manifest{}, nil, badf("corrupt archive trailer: %v", err)
	}
	// Drain the gzip stream: its CRC only verifies on a read reaching the
	// end, and the tar reader stops before the gzip trailer — without
	// this, a truncated trailer passes silently. The drain is bounded
	// too, or a tail of zeros would be inflated to its end.
	if n, err := io.Copy(io.Discard, io.LimitReader(gz, maxManifest+1)); err != nil {
		return Manifest{}, nil, badf("truncated archive trailer: %v", err)
	} else if n > maxManifest {
		return Manifest{}, nil, badf("more than %d bytes after the archive's end", maxManifest)
	}
	if got := checksum(payload); got != man.SHA256 {
		return Manifest{}, nil, badf("payload checksum %s does not match manifest %s", got[:16], shortSum(man.SHA256))
	}
	return man, payload, nil
}

// shortSum truncates a checksum for error messages.
func shortSum(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

// Inspect verifies a bundle's structure and checksum and returns its
// manifest WITHOUT decoding the model — the cheap read behind listings
// and `zsdb bundle inspect`.
func Inspect(r io.Reader) (Manifest, error) {
	man, _, err := readArchive(r)
	return man, err
}

// Open fully verifies a bundle and decodes its estimator: structure,
// checksum, a loadable self-describing payload, and manifest/payload
// estimator-name agreement. Anything less than all four is ErrBadBundle.
func Open(r io.Reader) (*Bundle, error) {
	man, payload, err := readArchive(r)
	if err != nil {
		return nil, err
	}
	est, err := costmodel.Load(bytes.NewReader(payload))
	if err != nil {
		return nil, badf("payload does not load: %v", err)
	}
	if est.Name() != man.Estimator {
		return nil, badf("manifest says estimator %q but payload is %q", man.Estimator, est.Name())
	}
	return &Bundle{Manifest: man, Estimator: est}, nil
}
