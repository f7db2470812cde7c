package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/obs/doctor"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// doctorFixture is a 3-replica in-process cluster behind its HTTP front
// end with tracing and the event log wired — the full surface zsdb
// doctor collects from, minus a network.
type doctorFixture struct {
	srv      *httptest.Server
	router   *cluster.Router
	sessions []*serving.Session
}

// captureOf returns the named target's capture in b (nil if absent).
func captureOf(b *doctor.Bundle, name string) *doctor.Capture {
	for i := range b.Captures {
		if b.Captures[i].Target.Name == name {
			return &b.Captures[i]
		}
	}
	return nil
}

func newDoctorFixture(t *testing.T) doctorFixture {
	t.Helper()
	f := sharedServeFixture(t)
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: 1, SlowThreshold: time.Second})
	events := obs.NewLog()
	router := cluster.NewRouter(cluster.Config{Tracer: tracer, Events: events})
	t.Cleanup(func() { router.Close() })
	var sessions []*serving.Session
	for i := 0; i < 3; i++ {
		sess, err := assembleSession(serving.Config{Tracer: tracer},
			[]string{"imdb", "ssb"}, []*storage.Database{f.imdb, f.ssb}, f.models)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		b, err := cluster.NewInProcess(fmt.Sprintf("r%d", i), sess, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	srv := newRouterServer(router)
	srv.tracer, srv.events = tracer, events
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return doctorFixture{srv: ts, router: router, sessions: sessions}
}

// collect runs the same collection path the CLI runs, against the
// fixture's front end.
func (f doctorFixture) collect(t *testing.T) *doctor.Bundle {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b, err := doctor.Collect(ctx, f.srv.Client(), []doctor.Target{{Name: "cluster", BaseURL: f.srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDoctorEndToEndHealthyCluster drives traffic through a healthy
// 3-replica cluster over HTTP, collects a support bundle exactly as the
// CLI does, and expects an all-pass verdict — and the same verdict from
// the archived bundle analyzed offline.
func TestDoctorEndToEndHealthyCluster(t *testing.T) {
	f := newDoctorFixture(t)
	for _, q := range fixedWorkload {
		resp, body := postJSON(t, f.srv.URL+"/v1/predict",
			cluster.PredictRequest{DB: q.db, Model: costmodel.NameZeroShot, SQL: q.sql})
		if resp.StatusCode != 200 {
			t.Fatalf("predict %s on %s: %d (%v)", q.sql, q.db, resp.StatusCode, body)
		}
	}
	b := f.collect(t)
	cap := captureOf(b, "cluster")
	if cap == nil {
		t.Fatal("no capture for the cluster target")
	}
	for _, doc := range []string{"stats", "cluster", "traces", "events"} {
		if d := cap.Doc(doc); d == nil || !d.OK() {
			t.Fatalf("doc %s not collected cleanly: %+v", doc, d)
		}
	}
	findings := doctor.AnalyzeAll(b)
	if v := doctor.Verdict(findings); v != doctor.Pass {
		t.Fatalf("healthy cluster verdict = %s, want pass\n%s", v, doctor.RenderTable(findings))
	}

	// The saved archive must reproduce the diagnosis byte for byte.
	var buf bytes.Buffer
	if err := doctor.WriteArchive(&buf, b); err != nil {
		t.Fatal(err)
	}
	b2, err := doctor.ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	offline := doctor.AnalyzeAll(b2)
	if doctor.RenderTable(offline) != doctor.RenderTable(findings) {
		t.Fatalf("offline analysis diverges from live:\nlive:\n%s\noffline:\n%s",
			doctor.RenderTable(findings), doctor.RenderTable(offline))
	}

	// The CLI's -o file, analyzed offline, gives the same table too.
	path := filepath.Join(t.TempDir(), "support.tgz")
	captureStdout(t, func() error {
		return runDoctor([]string{"-addr", f.srv.URL, "-names", "cluster", "-o", path})
	})
	if got := captureStdout(t, func() error { return runDoctor([]string{"analyze", "-bundle", path}) }); got != doctor.RenderTable(offline) {
		t.Fatalf("doctor analyze of the -o file diverges from the in-memory archive:\nin memory:\n%s\nfrom %s:\n%s",
			doctor.RenderTable(offline), path, got)
	}
}

// captureStdout runs a CLI entry point and returns what it printed to
// stdout, failing the test if it returned an error.
func captureStdout(t *testing.T, run func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run()
	os.Stdout = saved
	w.Close()
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("%v\n%s", runErr, got)
	}
	return got
}

// TestDoctorEndToEndCrashedReplica closes one replica's session, forces
// a probe round, and expects the collected bundle to fail diagnosis
// with a replica-health finding naming the dead replica.
func TestDoctorEndToEndCrashedReplica(t *testing.T) {
	f := newDoctorFixture(t)
	f.sessions[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	f.router.CheckHealth(ctx)
	cancel()

	b := f.collect(t)
	findings := doctor.AnalyzeAll(b)
	if v := doctor.Verdict(findings); v != doctor.Fail {
		t.Fatalf("crashed-replica verdict = %s, want fail\n%s", v, doctor.RenderTable(findings))
	}
	found := false
	for _, fd := range findings {
		if fd.Check == "replica-health" && fd.Status == doctor.Fail && strings.Contains(fd.Detail, "r1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no replica-health fail naming r1:\n%s", doctor.RenderTable(findings))
	}
}

// TestDoctorIsNotBlind pins that the doctor reads what the servers
// write. A doctor decoding nothing but zeros passes the healthy-cluster
// test above — every check then answers "nothing to judge yet" — so
// this one drives real traffic at each shipped topology and demands the
// answer that can only be given by someone who saw it: the request
// count, the lookups, the batches, the event head. It is the test that
// fails when a JSON tag one side of a document drifts from the other.
func TestDoctorIsNotBlind(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			base := topo.boot(t, fleetOpts{bundles: true})
			post := func(path string, body any) {
				t.Helper()
				if resp, reply := postJSON(t, base+path, body); resp.StatusCode != 200 {
					t.Fatalf("POST %s: %d (%v)", path, resp.StatusCode, reply)
				}
			}
			// Every statement twice: the second is a plan-cache hit.
			singles := 0
			for pass := 0; pass < 2; pass++ {
				for _, q := range fixedWorkload {
					post("/v1/predict", cluster.PredictRequest{DB: q.db, Model: costmodel.NameZeroShot, SQL: q.sql})
					singles++
				}
			}
			post("/v1/predict_batch", cluster.PredictBatchRequest{DB: "imdb", Model: costmodel.NameZeroShot,
				SQL: []string{testSQL, "SELECT COUNT(*) FROM movie_companies"}})
			post("/v1/whatif", cluster.WhatIfRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: []string{testSQL}})

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			b, err := doctor.Collect(ctx, nil, []doctor.Target{{Name: "fleet", BaseURL: base}})
			if err != nil {
				t.Fatal(err)
			}
			findings := doctor.AnalyzeAll(b)
			table := doctor.RenderTable(findings)
			if v := doctor.Verdict(findings); v != doctor.Pass {
				t.Fatalf("verdict = %s, want pass\n%s", v, table)
			}
			// details counts the check's findings that match pattern and
			// sums its first group, parsed as a count, over them.
			details := func(check, pattern string) (matched int, sum int64) {
				re := regexp.MustCompile(pattern)
				for _, f := range findings {
					if m := re.FindStringSubmatch(f.Detail); f.Check == check && m != nil {
						n, _ := strconv.ParseInt(m[1], 10, 64)
						matched, sum = matched+1, sum+n
					}
				}
				return matched, sum
			}

			// One predict-latency observation per request, single or batch.
			if _, n := details("latency-slo", `over (\d+) requests`); n != int64(singles+1) {
				t.Errorf("latency-slo saw %d requests, want %d\n%s", n, singles+1, table)
			}
			if _, n := details("cache-hit-rate", `^imdb/plan cache.* (\d+) lookups`); n == 0 {
				t.Errorf("cache-hit-rate saw no imdb plan-cache lookups\n%s", table)
			}
			// A sweep keeps no plans, so the servers report no what-if
			// cache; the doctor judges one only in older bundles.
			if hit, _ := details("cache-hit-rate", `^imdb/what-if cache.* (\d+) lookups`); hit != 0 {
				t.Errorf("cache-hit-rate judged a what-if cache no server reports\n%s", table)
			}
			if _, n := details("batch-sizes", `over (\d+) batches`); n == 0 {
				t.Errorf("batch-sizes saw no batched traffic\n%s", table)
			}

			// The event log as the server itself reports it, read without
			// the doctor's types.
			var log struct {
				Head   int64
				Events []json.RawMessage
			}
			getJSON(t, base+"/v1/events", &log)
			want := fmt.Sprintf("%d events contiguous through seq %d", len(log.Events), log.Head)
			if hit, _ := details("event-gaps", "^("+want+")$"); hit != 1 {
				t.Errorf("event-gaps did not report %q\n%s", want, table)
			}
			// A router in front of remote serves owns no bundle store and
			// logs only health transitions; everywhere else seeding the
			// store published revision 1 to every replica.
			if topo.name != "route" {
				if log.Head == 0 {
					t.Errorf("no event recorded after seeding the bundle store")
				}
				if hit, _ := details("bundle-generations", `^all (\d+) replicas at head revision 1$`); hit != 1 {
					t.Errorf("bundle-generations did not see revision 1 on every replica\n%s", table)
				}
			}
		})
	}
}
