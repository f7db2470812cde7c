package bundle

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNotFound reports a revision absent from a store — distinct from
// ErrBadBundle (present but unverifiable) so pollers can tell "nothing
// published yet" from "published garbage".
var ErrNotFound = errors.New("bundle: revision not found")

// ErrExists reports a Put refused because the revision is already
// stored: revisions are immutable, and of writers racing for one revision
// exactly one wins. A Publisher that loses retries at the new head + 1.
var ErrExists = errors.New("bundle: revision already exists")

// Store is where bundles live between publisher and distributors. The
// local DirStore is the only implementation today; the interface is
// deliberately the minimal GET/PUT/LIST surface an HTTP or object-store
// backend would also offer (Latest is the ETag analogue — one cheap
// call that lets a poller skip the download entirely).
type Store interface {
	// Latest returns the highest revision in the store, or ErrNotFound
	// when the store is empty.
	Latest(ctx context.Context) (int64, error)
	// Fetch opens the archive for one revision; ErrNotFound if absent.
	Fetch(ctx context.Context, revision int64) (io.ReadCloser, error)
	// Put stores the archive bytes for a revision. Revisions are
	// immutable: overwriting an existing revision fails with ErrExists.
	Put(ctx context.Context, revision int64, data []byte) error
	// Revisions lists all retained revisions in ascending order.
	Revisions(ctx context.Context) ([]int64, error)
	// Delete removes a retained revision (pruning). Deleting an absent
	// revision is not an error.
	Delete(ctx context.Context, revision int64) error
}

// DirStore keeps bundles as files in one directory, named
// bundle-%012d.tgz so lexical order is revision order. Every Put is
// staged and synced like WriteFile, then hard-linked into place and the
// directory synced, so a concurrent Fetch never sees a half-written
// archive, an acknowledged revision survives a crash, and of writers
// racing for one revision — in one process or several sharing the
// directory — exactly one succeeds and the rest are refused.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("bundle: store directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bundle: create store dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// path returns the archive path for a revision.
func (s *DirStore) path(revision int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("bundle-%012d.tgz", revision))
}

func (s *DirStore) Latest(ctx context.Context) (int64, error) {
	revs, err := s.Revisions(ctx)
	if err != nil {
		return 0, err
	}
	if len(revs) == 0 {
		return 0, ErrNotFound
	}
	return revs[len(revs)-1], nil
}

func (s *DirStore) Fetch(ctx context.Context, revision int64) (io.ReadCloser, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(s.path(revision))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: revision %d", ErrNotFound, revision)
	}
	if err != nil {
		return nil, fmt.Errorf("bundle: open revision %d: %w", revision, err)
	}
	return f, nil
}

func (s *DirStore) Put(ctx context.Context, revision int64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if revision < 1 {
		return fmt.Errorf("bundle: revision must be >= 1, got %d", revision)
	}
	err := commitFile(s.path(revision), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}, linkNew)
	if errors.Is(err, os.ErrExist) {
		return fmt.Errorf("%w: revision %d (revisions are immutable)", ErrExists, revision)
	}
	if err != nil {
		return fmt.Errorf("bundle: write revision %d: %w", revision, err)
	}
	return nil
}

func (s *DirStore) Revisions(ctx context.Context) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("bundle: list store: %w", err)
	}
	var revs []int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "bundle-") || !strings.HasSuffix(name, ".tgz") {
			continue
		}
		rev, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "bundle-"), ".tgz"), 10, 64)
		if err != nil || rev < 1 {
			continue
		}
		revs = append(revs, rev)
	}
	sort.Slice(revs, func(i, j int) bool { return revs[i] < revs[j] })
	return revs, nil
}

func (s *DirStore) Delete(ctx context.Context, revision int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	err := os.Remove(s.path(revision))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("bundle: delete revision %d: %w", revision, err)
	}
	return nil
}

// WriteFile is the one way this system writes a file: write fills a
// hidden stage (.<base>-*.tmp) in path's directory, which is made 0644,
// synced, closed and renamed over path, and then the directory is
// synced so the rename itself survives a crash. Until the rename, path
// is untouched: on any earlier error the stage is removed, so a reader
// sees the old file or the new one and never a torn mix.
func WriteFile(path string, write func(io.Writer) error) error {
	return commitFile(path, write, os.Rename)
}

// linkNew places a stage at path only if nothing is there: unlike a
// rename, a hard link fails when path exists, so two writers racing for
// one name cannot replace each other. Once linked the file is in place,
// and a stage name left behind is only litter that Revisions skips.
func linkNew(stage, path string) error {
	if err := os.Link(stage, path); err != nil {
		return err
	}
	os.Remove(stage)
	return nil
}

// commitFile is WriteFile with the step that puts the synced stage at
// path left to place.
func commitFile(path string, write func(io.Writer) error, place func(stage, path string) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a harmless error when Close already ran
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	// CreateTemp's 0600 must not leak: the files this writes are models
	// and archives other users and processes read.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = place(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if closeErr := d.Close(); err == nil {
		err = closeErr
	}
	return err
}

// FetchManifest verifies one stored revision and returns its manifest —
// the listing primitive behind `zsdb bundle list` and GET /v1/bundles.
func FetchManifest(ctx context.Context, store Store, revision int64) (Manifest, error) {
	rc, err := store.Fetch(ctx, revision)
	if err != nil {
		return Manifest{}, err
	}
	defer rc.Close()
	man, err := Inspect(rc)
	if err != nil {
		return Manifest{}, fmt.Errorf("revision %d: %w", revision, err)
	}
	return man, nil
}

// List inspects every retained revision, ascending. A revision that
// fails verification is reported in place with a zero manifest holding
// only the revision, so an operator sees corruption instead of a gap;
// the error from the worst offender is returned alongside the list.
func List(ctx context.Context, store Store) ([]Manifest, error) {
	revs, err := store.Revisions(ctx)
	if err != nil {
		return nil, err
	}
	var firstErr error
	out := make([]Manifest, 0, len(revs))
	for _, rev := range revs {
		man, err := FetchManifest(ctx, store, rev)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			man = Manifest{Revision: rev}
		}
		out = append(out, man)
	}
	return out, firstErr
}
