package bundle_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
)

func newDirStore(t *testing.T) *bundle.DirStore {
	t.Helper()
	st, err := bundle.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDirStoreLifecycle(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)

	if _, err := st.Latest(ctx); !errors.Is(err, bundle.ErrNotFound) {
		t.Fatalf("empty Latest err = %v, want ErrNotFound", err)
	}
	if _, err := st.Fetch(ctx, 1); !errors.Is(err, bundle.ErrNotFound) {
		t.Fatalf("empty Fetch err = %v, want ErrNotFound", err)
	}

	for rev, body := range map[int64]string{1: "one", 2: "two", 5: "five"} {
		if err := st.Put(ctx, rev, []byte(body)); err != nil {
			t.Fatalf("Put(%d): %v", rev, err)
		}
	}
	head, err := st.Latest(ctx)
	if err != nil || head != 5 {
		t.Fatalf("Latest = %d (err %v), want 5", head, err)
	}
	revs, err := st.Revisions(ctx)
	if err != nil || len(revs) != 3 || revs[0] != 1 || revs[2] != 5 {
		t.Fatalf("Revisions = %v (err %v), want [1 2 5]", revs, err)
	}
	rc, err := st.Fetch(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(body) != "two" {
		t.Fatalf("Fetch(2) = %q (err %v)", body, err)
	}

	// Revisions are immutable.
	if err := st.Put(ctx, 2, []byte("rewrite")); err == nil {
		t.Fatal("Put overwrote an existing revision")
	}

	if err := st.Delete(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(ctx, 1); err != nil {
		t.Fatalf("re-delete errored: %v", err)
	}
	revs, _ = st.Revisions(ctx)
	if len(revs) != 2 || revs[0] != 2 {
		t.Fatalf("Revisions after delete = %v", revs)
	}
}

// TestDirStoreConcurrentPutKeepsOneRevision races writers for one
// revision behind a start barrier, as two processes publishing into one
// directory do: exactly one Put succeeds, the rest are refused, and the
// stored archive is the winner's payload, never replaced by a later one.
func TestDirStoreConcurrentPutKeepsOneRevision(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 4<<20)
	}
	errs := make([]error, len(payloads))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = st.Put(ctx, 1, payloads[i])
		}()
	}
	close(start)
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner >= 0:
			t.Fatalf("writers %d and %d both stored revision 1", winner, i)
		case err == nil:
			winner = i
		case !errors.Is(err, bundle.ErrExists):
			t.Fatalf("writer %d: %v, want a refusal", i, err)
		}
	}
	if winner < 0 {
		t.Fatalf("no writer stored revision 1: %v", errs)
	}
	rc, err := st.Fetch(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payloads[winner]) {
		t.Fatalf("revision 1 holds %d bytes (err %v), want writer %d's %d", len(got), err, winner, len(payloads[winner]))
	}
}

func TestDirStoreIgnoresForeignFiles(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	if err := st.Put(ctx, 3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	// Debris a real directory accumulates: temp files, notes, bad names.
	for _, name := range []string{"README", ".bundle-123.tmp", "bundle-abc.tgz", "bundle-000000000000.tgz"} {
		if err := os.WriteFile(filepath.Join(st.Dir(), name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	revs, err := st.Revisions(ctx)
	if err != nil || len(revs) != 1 || revs[0] != 3 {
		t.Fatalf("Revisions = %v (err %v), want [3]", revs, err)
	}
}

func TestListSurfacesCorruptRevisions(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	data, man := buildBundle(t, &scaleEstimator{Scale: 1}, 1, bundle.Meta{})
	if err := st.Put(ctx, 1, data); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, 2, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	mans, err := bundle.List(ctx, st)
	if err == nil {
		t.Fatal("List over a corrupt revision returned no error")
	}
	if len(mans) != 2 {
		t.Fatalf("List = %d manifests, want 2", len(mans))
	}
	if mans[0].SHA256 != man.SHA256 {
		t.Fatalf("good revision manifest = %+v", mans[0])
	}
	if mans[1].Revision != 2 || mans[1].SHA256 != "" {
		t.Fatalf("corrupt revision placeholder = %+v, want bare revision 2", mans[1])
	}
}

// TestWriteFile pins the one durable write: the content lands under
// path as 0644 with no stage left behind, a write that fails partway
// leaves the previous file byte for byte, and a missing directory is an
// error.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	stages := func() []string {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, ".model.gob-*.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	if err := bundle.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "first")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("content = %q (err %v), want %q", got, err, "first")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Fatalf("mode = %v, want 0644", mode)
	}
	if s := stages(); len(s) != 0 {
		t.Fatalf("stage files left after a successful write: %v", s)
	}

	boom := errors.New("boom")
	err = bundle.WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the second"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" {
		t.Fatalf("after a failed write content = %q (err %v), want the previous %q", got, err, "first")
	}
	if s := stages(); len(s) != 0 {
		t.Fatalf("stage files left after a failed write: %v", s)
	}

	if err := bundle.WriteFile(filepath.Join(dir, "missing", "model.gob"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("WriteFile into a missing directory returned no error")
	}
}
