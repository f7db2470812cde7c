package doctor_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/cluster/sim"
	"github.com/zeroshot-db/zeroshot/internal/obs/doctor"
)

// rawArchive packs members (name, body pairs, in order) the way
// WriteArchive does, for archives WriteArchive would never write.
func rawArchive(t testing.TB, members ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for i := 0; i < len(members); i += 2 {
		body := []byte(members[i+1])
		if err := tw.WriteHeader(&tar.Header{Name: members[i], Mode: 0o644, Size: int64(len(body))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(body); err != nil {
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

// nullEntryArchive is a one-target archive whose meta.json records a
// null where a capture attempt belongs — what a hand edit leaves behind.
func nullEntryArchive(t testing.TB) []byte {
	return rawArchive(t, "meta.json",
		`{"tool":"zsdb doctor","targets":[{"name":"t","base_url":"http://t"}],"docs":{"t":{"stats":null,"events":{"name":"events","code":404,"error":"off"}}}}`)
}

// TestReadArchiveNullEntry: a null capture entry reads as "never
// attempted" (it used to be dereferenced), which collection then fails.
func TestReadArchiveNullEntry(t *testing.T) {
	b, err := doctor.ReadArchive(bytes.NewReader(nullEntryArchive(t)))
	if err != nil {
		t.Fatal(err)
	}
	c := b.Capture("t")
	if c == nil || c.Doc("stats") != nil || c.Doc("events") == nil {
		t.Fatalf("capture = %+v, want events kept and the null stats entry dropped", c)
	}
	fs := doctor.AnalyzeAll(b)
	if fs[0].Check != "collection" || fs[0].Status != doctor.Fail || fs[0].Detail != "stats never collected" {
		t.Fatalf("first finding = %+v, want collection failing on stats never collected", fs[0])
	}
}

// TestReadArchiveBoundsMembers: the reader holds every member in memory,
// so it refuses more of them than meta.json's targets account for.
func TestReadArchiveBoundsMembers(t *testing.T) {
	members := []string{"meta.json", `{"targets":[{"name":"t"}],"docs":{}}`}
	for i := 0; i < 64; i++ {
		members = append(members, fmt.Sprintf("targets/t/junk%d.json", i), "{}")
	}
	_, err := doctor.ReadArchive(bytes.NewReader(rawArchive(t, members...)))
	if !errors.Is(err, doctor.ErrTooManyMembers) {
		t.Fatalf("err = %v, want ErrTooManyMembers", err)
	}
}

// TestArchiveRoundTripURLTarget: without -names a target is named by its
// URL, slashes and all; its documents must still come back from the
// archive (the reader used to drop every member nested deeper than
// targets/<name>/<doc>.json).
func TestArchiveRoundTripURLTarget(t *testing.T) {
	ctx := context.Background()
	s, err := sim.New(sim.Config{Replicas: 2, Databases: simDatabases, Requests: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(ctx, 20)
	b := bundleFromSim(t, ctx, s)
	s.Finish(ctx)
	b.Captures[0].Target.Name = "http://127.0.0.1:8080"
	b.Meta.Targets[0] = b.Captures[0].Target

	var buf bytes.Buffer
	if err := doctor.WriteArchive(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := doctor.ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live, offline := doctor.RenderTable(doctor.AnalyzeAll(b)), doctor.RenderTable(doctor.AnalyzeAll(got))
	if live != offline {
		t.Fatalf("offline analysis diverges from live:\nlive:\n%s\noffline:\n%s", live, offline)
	}
}

// FuzzReadArchive feeds the archive reader bytes it did not write —
// `zsdb doctor analyze` opens whatever file it is pointed at. It may
// refuse them, but must not panic, and a bundle it does return must
// survive analysis and rendering.
//
// The corpus under testdata/fuzz/FuzzReadArchive is a real archive of a
// sim-collected bundle and the null-entry crasher;
// UPDATE_FUZZ_CORPUS=1 go test -run FuzzReadArchive rewrites both after
// a change to the archive format.
func FuzzReadArchive(f *testing.F) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
		ctx := context.Background()
		s, err := sim.New(sim.Config{Replicas: 2, Databases: simDatabases[:2], Requests: 10, Seed: 6})
		if err != nil {
			f.Fatal(err)
		}
		s.Step(ctx, 10)
		var buf bytes.Buffer
		if err := doctor.WriteArchive(&buf, bundleFromSim(f, ctx, s)); err != nil {
			f.Fatal(err)
		}
		s.Finish(ctx)
		dir := filepath.Join("testdata", "fuzz", "FuzzReadArchive")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			f.Fatal(err)
		}
		for name, data := range map[string][]byte{"seed_sim_archive": buf.Bytes(), "seed_null_entry": nullEntryArchive(f)} {
			entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
				f.Fatal(err)
			}
		}
		f.Skip("corpus rewritten")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := doctor.ReadArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		if table := doctor.RenderTable(doctor.AnalyzeAll(b)); table == "" {
			t.Fatal("empty verdict table")
		}
	})
}
