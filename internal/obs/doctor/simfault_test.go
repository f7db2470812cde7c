package doctor_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/cluster/sim"
	"github.com/zeroshot-db/zeroshot/internal/obs/doctor"
)

// simDatabases is the fixed key population the fault-schedule tests
// route over — wide enough that every replica owns something.
var simDatabases = []string{"imdb", "ssb", "tpch", "accounts", "web", "sensors"}

// bundleFromSim snapshots a live simulated cluster into a support
// bundle, exactly the documents `zsdb doctor` would collect over HTTP:
// the router's aggregated stats and its ring/health view. Optional
// subsystems are captured as disabled, matching a fleet that runs
// without -adapt or -bundle-dir.
func bundleFromSim(t testing.TB, ctx context.Context, s *sim.Sim) *doctor.Bundle {
	t.Helper()
	router := s.Router()
	cap := doctor.Capture{
		Target: doctor.Target{Name: "router", BaseURL: "http://router"},
		Docs:   map[string]*doctor.Doc{},
	}
	for _, ep := range doctor.Endpoints {
		cap.Docs[ep.Name] = &doctor.Doc{Name: ep.Name, Code: 404, Err: "disabled"}
	}

	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatalf("router stats: %v", err)
	}
	stats, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	cap.Docs["stats"] = &doctor.Doc{Name: "stats", Code: 200, Body: stats}

	view := cluster.RingView{
		Replicas: router.Replicas(),
		Healthy:  router.Healthy(),
		Owners:   map[string]string{},
		Routes:   map[string][]string{},
	}
	for _, db := range simDatabases {
		view.Owners[db] = router.Owner(db)
		view.Routes[db] = router.Route(db)
	}
	clusterBody, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	cap.Docs["cluster"] = &doctor.Doc{Name: "cluster", Code: 200, Body: clusterBody}

	return &doctor.Bundle{
		Meta:     doctor.Meta{Tool: "zsdb doctor", Targets: []doctor.Target{cap.Target}},
		Captures: []doctor.Capture{cap},
	}
}

func worstFor(fs []doctor.Finding, check string) doctor.Status {
	worst := doctor.Skip
	for _, f := range fs {
		if f.Check != check {
			continue
		}
		switch {
		case f.Status == doctor.Fail:
			return doctor.Fail
		case f.Status == doctor.Warn && worst != doctor.Fail:
			worst = doctor.Warn
		case f.Status == doctor.Pass && worst == doctor.Skip:
			worst = doctor.Pass
		}
	}
	return worst
}

// TestDoctorCleanClusterAllPass drives a fault-free schedule and pins
// that the doctor finds nothing wrong: every applicable check passes,
// none warns or fails.
func TestDoctorCleanClusterAllPass(t *testing.T) {
	ctx := context.Background()
	s, err := sim.New(sim.Config{Replicas: 3, Databases: simDatabases, Requests: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(ctx, 60)
	b := bundleFromSim(t, ctx, s)
	res := s.Finish(ctx)
	if len(res.Violations) != 0 {
		t.Fatalf("sim itself violated invariants: %v", res.Violations)
	}

	fs := doctor.AnalyzeAll(b)
	if v := doctor.Verdict(fs); v != doctor.Pass {
		t.Fatalf("clean cluster verdict = %s, want pass\n%s", v, doctor.RenderTable(fs))
	}
	for _, check := range []string{"collection", "replica-health", "ring-agreement"} {
		if got := worstFor(fs, check); got != doctor.Pass {
			t.Fatalf("check %s = %s on a clean cluster\n%s", check, got, doctor.RenderTable(fs))
		}
	}
}

// TestDoctorCrashedReplicaFails crashes one replica mid-run and pins
// that the doctor's replica-health check deterministically fails,
// naming the crashed replica.
func TestDoctorCrashedReplicaFails(t *testing.T) {
	ctx := context.Background()
	s, err := sim.New(sim.Config{
		Replicas:  3,
		Databases: simDatabases,
		Requests:  60,
		Seed:      2,
		Schedule:  []sim.Event{{Step: 20, Action: sim.Crash, Replica: "s1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(ctx, 60)
	b := bundleFromSim(t, ctx, s)
	s.Finish(ctx)

	fs := doctor.AnalyzeAll(b)
	if got := worstFor(fs, "replica-health"); got != doctor.Fail {
		t.Fatalf("replica-health = %s with s1 crashed, want fail\n%s", got, doctor.RenderTable(fs))
	}
	named := false
	for _, f := range fs {
		if f.Check == "replica-health" && f.Status == doctor.Fail {
			named = named || strings.Contains(f.Detail, "s1")
		}
	}
	if !named {
		t.Fatalf("failure does not name the crashed replica\n%s", doctor.RenderTable(fs))
	}
	if v := doctor.Verdict(fs); v != doctor.Fail {
		t.Fatalf("overall verdict = %s, want fail", v)
	}
}

// TestDoctorPartitionedReplicaFails partitions a replica — unreachable
// but not crashed — and pins the same deterministic health failure. A
// recovery heals the verdict back to pass.
func TestDoctorPartitionedReplicaFails(t *testing.T) {
	ctx := context.Background()
	s, err := sim.New(sim.Config{Replicas: 3, Databases: simDatabases, Requests: 90, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(ctx, 30)
	if err := s.Fault(ctx, "s2", sim.Partition); err != nil {
		t.Fatal(err)
	}
	s.Step(ctx, 30)

	fs := doctor.AnalyzeAll(bundleFromSim(t, ctx, s))
	if got := worstFor(fs, "replica-health"); got != doctor.Fail {
		t.Fatalf("replica-health = %s with s2 partitioned, want fail\n%s", got, doctor.RenderTable(fs))
	}

	if err := s.Fault(ctx, "s2", sim.Recover); err != nil {
		t.Fatal(err)
	}
	s.Step(ctx, 30)
	fs = doctor.AnalyzeAll(bundleFromSim(t, ctx, s))
	s.Finish(ctx)
	if got := worstFor(fs, "replica-health"); got != doctor.Pass {
		t.Fatalf("replica-health = %s after recovery, want pass\n%s", got, doctor.RenderTable(fs))
	}
}

// TestDoctorGenerationLaggedDistributor injects a bundles document
// where one replica trails the store head — the generation-skew
// condition the distributor tier is meant to close — and pins the
// warn-at-one / fail-at-two ladder.
func TestDoctorGenerationLaggedDistributor(t *testing.T) {
	ctx := context.Background()
	s, err := sim.New(sim.Config{Replicas: 3, Databases: simDatabases, Requests: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(ctx, 30)
	b := bundleFromSim(t, ctx, s)
	s.Finish(ctx)

	inject := func(lagged int64) {
		doc := map[string]any{
			"estimator": "zeroshot",
			"revisions": []bundle.Manifest{{Revision: 3}, {Revision: 4}, {Revision: 5}},
			"replicas":  map[string]bundle.Status{"s0": {Revision: 5}, "s1": {Revision: 5}, "s2": {Revision: lagged}},
		}
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		b.Captures[0].Docs["bundles"] = &doctor.Doc{Name: "bundles", Code: 200, Body: body}
	}

	inject(5)
	if got := worstFor(doctor.AnalyzeAll(b), "bundle-generations"); got != doctor.Pass {
		t.Fatalf("in-sync fleet = %s, want pass", got)
	}
	inject(4)
	if got := worstFor(doctor.AnalyzeAll(b), "bundle-generations"); got != doctor.Warn {
		t.Fatalf("one-behind replica = %s, want warn", got)
	}
	inject(2)
	fs := doctor.AnalyzeAll(b)
	if got := worstFor(fs, "bundle-generations"); got != doctor.Fail {
		t.Fatalf("three-behind replica = %s, want fail", got)
	}
	if v := doctor.Verdict(fs); v != doctor.Fail {
		t.Fatalf("overall verdict = %s, want fail", v)
	}
}
