package main

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// cmdScaleEstimator pins serving behaviour to one float so activations
// and rollbacks are bitwise-checkable through /v1/predict: it predicts
// Scale·1e-6·(cost+1). Registered so costmodel.Load — and with it
// bundle.Open and the distributor — can reconstruct it from a payload.
type cmdScaleEstimator struct {
	Scale float64
}

const cmdScaleName = "cmdbundle"

func init() {
	costmodel.Register(cmdScaleName, costmodel.Factory{
		New: func(costmodel.Options) (costmodel.Estimator, error) {
			return &cmdScaleEstimator{Scale: 1}, nil
		},
		Load: func(r io.Reader) (costmodel.Estimator, error) {
			var e cmdScaleEstimator
			if err := gob.NewDecoder(r).Decode(&e); err != nil {
				return nil, err
			}
			return &e, nil
		},
	})
}

func (e *cmdScaleEstimator) Name() string { return cmdScaleName }

func (e *cmdScaleEstimator) Fit(ctx context.Context, samples []costmodel.Sample) (*costmodel.FitReport, error) {
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

func (e *cmdScaleEstimator) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(ins))
	for i, in := range ins {
		out[i] = e.Scale * 1e-6 * (in.OptimizerCost + 1)
	}
	return out, nil
}

func (e *cmdScaleEstimator) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e)
}

func (e *cmdScaleEstimator) Clone() costmodel.Tuner {
	return &cmdScaleEstimator{Scale: e.Scale}
}

func (e *cmdScaleEstimator) FineTune(ctx context.Context, samples []costmodel.Sample, epochs int, lr float64) (*costmodel.FitReport, error) {
	// Recalibrate exactly from the first sample: enough for a
	// deterministic adaptation whose accept verdict is forced.
	if len(samples) > 0 {
		s := samples[0]
		e.Scale = s.RuntimeSec / (1e-6 * (s.OptimizerCost + 1))
	}
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

// newBundleFixture assembles a session serving the scale estimator over
// the shared imdb fixture, wired to a bundle store in a temp dir and
// seeded with the boot model as revision 1 — the single-replica shape
// `zsdb serve -bundle-dir` builds.
func newBundleFixture(t *testing.T, scale float64) (*serving.Session, *bundleControl, *bundle.Distributor) {
	t.Helper()
	f := sharedServeFixture(t)
	sess := serving.NewSession(serving.Config{})
	if err := sess.AttachDatabase("imdb", f.imdb); err != nil {
		t.Fatal(err)
	}
	est := &cmdScaleEstimator{Scale: scale}
	if err := sess.AttachModel(est); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })

	bf := bundleFlags{dir: t.TempDir(), poll: time.Hour}
	bc, err := bf.newControl([]costmodel.Estimator{est}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bc.close)
	dist, err := bc.attach("local", sess, bf.poll)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.seed(context.Background(), []costmodel.Estimator{est}); err != nil {
		t.Fatal(err)
	}
	return sess, bc, dist
}

const bundleTestSQL = "SELECT COUNT(*) FROM title"

// predictRuntime runs one prediction through the full serving path.
func predictRuntime(t *testing.T, sess *serving.Session, sql string) float64 {
	t.Helper()
	pred, err := sess.Predict(context.Background(), "imdb", cmdScaleName, sql)
	if err != nil {
		t.Fatal(err)
	}
	return pred.RuntimeSec
}

// TestServeBundleLifecycle drives the full single-replica loop over the
// HTTP surface: seeded store, publish, refresh-activate, generation and
// stats visibility, durable rollback restoring the prior generation
// bitwise, and a corrupt head refusing activation without touching the
// serving generation.
func TestServeBundleLifecycle(t *testing.T) {
	sess, bc, dist := newBundleFixture(t, 1)
	srv := newSessionServer(sess, nil)
	srv.bundles = bc
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	ctx := context.Background()

	baseline := predictRuntime(t, sess, bundleTestSQL)
	gen0, _, err := sess.ModelGeneration(cmdScaleName)
	if err != nil {
		t.Fatal(err)
	}

	// The seeded store answers GET /v1/bundles with one revision and the
	// local replica's distributor already at it.
	var view struct {
		Estimator string                   `json:"estimator"`
		Retain    int                      `json:"retain"`
		Revisions []bundle.Manifest        `json:"revisions"`
		Replicas  map[string]bundle.Status `json:"replicas"`
	}
	resp := getJSON(t, ts.URL+"/v1/bundles", &view)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/bundles: %d", resp.StatusCode)
	}
	if view.Estimator != cmdScaleName || len(view.Revisions) != 1 || view.Revisions[0].Fingerprint != "boot" {
		t.Fatalf("unexpected bundle view: %+v", view)
	}
	if st, ok := view.Replicas["local"]; !ok || st.Revision != 1 {
		t.Fatalf("local replica status = %+v, want revision 1", view.Replicas)
	}

	// /v1/models carries the serving generation and swap time (satellite:
	// generation observability).
	var models struct {
		Models []struct {
			Name       string    `json:"name"`
			Generation int64     `json:"generation"`
			Swapped    time.Time `json:"swapped"`
		} `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &models)
	found := false
	for _, m := range models.Models {
		if m.Name == cmdScaleName {
			found = true
			if m.Generation != gen0 || m.Swapped.IsZero() {
				t.Fatalf("model info %+v, want generation %d and a swap time", m, gen0)
			}
		}
	}
	if !found {
		t.Fatalf("%s missing from /v1/models: %+v", cmdScaleName, models)
	}

	// Publish revision 2 with doubled scale; a refresh activates it.
	if _, err := bc.pub.Publish(ctx, &cmdScaleEstimator{Scale: 2}, bundle.Meta{Fingerprint: "test:v2"}); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/bundles", bundlesRequest{Action: "refresh"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh: %d %v", resp.StatusCode, body)
	}
	if got := predictRuntime(t, sess, bundleTestSQL); got != 2*baseline {
		t.Fatalf("after activating scale-2 revision: prediction %v, want %v", got, 2*baseline)
	}
	gen1, _, _ := sess.ModelGeneration(cmdScaleName)
	if gen1 <= gen0 {
		t.Fatalf("generation did not advance on activation: %d -> %d", gen0, gen1)
	}

	// The distributor's counters ride along in /v1/stats.
	var stats struct {
		Bundles map[string]bundle.Status `json:"bundles"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if st, ok := stats.Bundles["local"]; !ok || st.Revision != 2 || st.Activations != 1 {
		t.Fatalf("stats bundles = %+v, want local at revision 2 with 1 activation", stats.Bundles)
	}

	// Durable rollback: revision 1's payload republishes as revision 3
	// and the restored generation predicts bitwise-identically to the
	// pre-swap baseline.
	resp, body = postJSON(t, ts.URL+"/v1/bundles", bundlesRequest{Action: "rollback"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %d %v", resp.StatusCode, body)
	}
	if dist.Status().Revision != 3 {
		t.Fatalf("distributor at revision %d after rollback, want 3", dist.Status().Revision)
	}
	man := dist.Status().Manifest
	if man == nil || man.RollbackOf != 1 || man.RolledBackFrom != 2 {
		t.Fatalf("rollback manifest = %+v, want rollback_of 1 superseding 2", man)
	}
	if n := dist.Status().Rollbacks; n != 1 {
		t.Fatalf("distributor counted %d rollbacks, want 1", n)
	}
	restored := predictRuntime(t, sess, bundleTestSQL)
	if math.Float64bits(restored) != math.Float64bits(baseline) {
		t.Fatalf("rolled-back prediction %v is not bitwise-equal to baseline %v", restored, baseline)
	}
	gen2, _, _ := sess.ModelGeneration(cmdScaleName)
	if gen2 <= gen1 {
		t.Fatalf("rollback must land as a NEW generation, got %d after %d", gen2, gen1)
	}

	// A corrupt head refuses activation: refresh fails, the serving
	// generation and predictions stay on the rolled-back revision.
	if err := bc.store.Put(ctx, 4, []byte("not a bundle archive")); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/bundles", bundlesRequest{Action: "refresh"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("refresh over corrupt head: %d %v, want 502", resp.StatusCode, body)
	}
	if dist.Status().Revision != 3 {
		t.Fatalf("corrupt head moved the distributor to revision %d", dist.Status().Revision)
	}
	if gen3, _, _ := sess.ModelGeneration(cmdScaleName); gen3 != gen2 {
		t.Fatalf("corrupt head bumped the serving generation: %d -> %d", gen2, gen3)
	}
	if got := predictRuntime(t, sess, bundleTestSQL); math.Float64bits(got) != math.Float64bits(baseline) {
		t.Fatalf("prediction drifted after refused activation: %v vs %v", got, baseline)
	}
	getJSON(t, ts.URL+"/v1/bundles", &view)
	if st := view.Replicas["local"]; st.LastError == "" || st.Failures == 0 {
		t.Fatalf("refused activation left no trace in status: %+v", st)
	}

	// Unknown actions are 400, and other methods 405.
	resp, _ = postJSON(t, ts.URL+"/v1/bundles", bundlesRequest{Action: "explode"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action: %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/bundles", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/bundles: %d, want 405", dresp.StatusCode)
	}
}

// TestBundleActivationUnderLoad hammers one session with concurrent
// predictions while the distributor activates alternating revisions.
// Every answer must come from exactly one generation — scale 1 or
// scale 2, never a torn mix — and the scheduler's flush-time generation
// lookup must hold up under the race detector.
func TestBundleActivationUnderLoad(t *testing.T) {
	sess, bc, dist := newBundleFixture(t, 1)
	ctx := context.Background()

	baseline := predictRuntime(t, sess, bundleTestSQL)
	doubled := 2 * baseline // exact: scaling by a power of two

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var torn atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pred, err := sess.Predict(ctx, "imdb", cmdScaleName, bundleTestSQL)
				if err != nil {
					t.Error(err)
					return
				}
				if b := math.Float64bits(pred.RuntimeSec); b != math.Float64bits(baseline) && b != math.Float64bits(doubled) {
					torn.Add(1)
				}
			}
		}()
	}
	for rev := int64(2); rev <= 9; rev++ {
		scale := float64(1 + rev%2) // alternate 2, 1, 2, ...
		if _, err := bc.pub.Publish(ctx, &cmdScaleEstimator{Scale: scale}, bundle.Meta{}); err != nil {
			t.Fatal(err)
		}
		if activated, err := dist.PollOnce(ctx); err != nil || !activated {
			t.Fatalf("poll for revision %d: activated=%v err=%v", rev, activated, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d prediction(s) came from a half-swapped generation", n)
	}
}

// TestServeBundlesDisabled pins the off-by-default behaviour: without
// -bundle-dir the endpoint is 404 on every topology.
func TestServeBundlesDisabled(t *testing.T) {
	forEachTopology(t, func(t *testing.T, baseURL string) {
		resp, err := http.Get(baseURL + "/v1/bundles")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /v1/bundles without -bundle-dir: %d, want 404", resp.StatusCode)
		}
	})
}

// TestClusterBundleConvergence wires three replica sessions to one
// store behind the cluster front end and checks the fleet-wide story: a
// published revision reaches every replica on refresh, and per-replica
// status is visible in both /v1/bundles and /v1/stats.
func TestClusterBundleConvergence(t *testing.T) {
	f := sharedServeFixture(t)
	ctx := context.Background()
	bf := bundleFlags{dir: t.TempDir(), poll: time.Hour}

	boot := &cmdScaleEstimator{Scale: 1}
	bc, err := bf.newControl([]costmodel.Estimator{boot}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bc.close)

	router := cluster.NewRouter(cluster.Config{})
	t.Cleanup(func() { router.Close() })
	sessions := map[string]*serving.Session{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("r%d", i)
		sess := serving.NewSession(serving.Config{})
		if err := sess.AttachDatabase("imdb", f.imdb); err != nil {
			t.Fatal(err)
		}
		if err := sess.AttachModel(&cmdScaleEstimator{Scale: 1}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		if _, err := bc.attach(name, sess, bf.poll); err != nil {
			t.Fatal(err)
		}
		b, err := cluster.NewInProcess(name, sess, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Register(b); err != nil {
			t.Fatal(err)
		}
		sessions[name] = sess
	}
	if err := bc.seed(ctx, []costmodel.Estimator{boot}); err != nil {
		t.Fatal(err)
	}

	srv := newRouterServer(router)
	srv.bundles = bc
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	var view struct {
		Replicas map[string]bundle.Status `json:"replicas"`
	}
	getJSON(t, ts.URL+"/v1/bundles", &view)
	if len(view.Replicas) != 3 {
		t.Fatalf("want 3 replica statuses, got %+v", view.Replicas)
	}
	for name, st := range view.Replicas {
		if st.Revision != 1 {
			t.Fatalf("replica %s at revision %d after seeding, want 1", name, st.Revision)
		}
	}

	// Publish revision 2 and refresh through the cluster endpoint: every
	// replica must converge, and its serving session actually swap.
	if _, err := bc.pub.Publish(ctx, &cmdScaleEstimator{Scale: 3}, bundle.Meta{Fingerprint: "test:v2"}); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/bundles", bundlesRequest{Action: "refresh"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster refresh: %d %v", resp.StatusCode, body)
	}
	for name, sess := range sessions {
		est, err := sess.Model(cmdScaleName)
		if err != nil {
			t.Fatal(err)
		}
		if got := est.(*cmdScaleEstimator).Scale; got != 3 {
			t.Fatalf("replica %s serves scale %v after refresh, want 3", name, got)
		}
	}

	// Generation skew is observable: the aggregated stats carry each
	// replica's distributor revision.
	var stats struct {
		Bundles map[string]bundle.Status `json:"bundles"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if len(stats.Bundles) != 3 {
		t.Fatalf("cluster /v1/stats bundles = %+v, want 3 replicas", stats.Bundles)
	}
	for name, st := range stats.Bundles {
		if st.Revision != 2 {
			t.Fatalf("replica %s stats at revision %d, want 2", name, st.Revision)
		}
	}
}

// TestBundleCLI drives the operator loop end to end: build a standalone
// archive from a saved model, inspect it, push two revisions into a
// store, list them, and roll back — each subcommand through the same
// dispatch `zsdb bundle` uses.
func TestBundleCLI(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := costmodel.Save(f, &cmdScaleEstimator{Scale: 1.5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	bundlePath := filepath.Join(dir, "model-bundle.tgz")
	if err := runBundle([]string{"build", "-model", modelPath, "-out", bundlePath, "-revision", "7"}); err != nil {
		t.Fatalf("bundle build: %v", err)
	}
	bf, err := os.Open(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	man, err := bundle.Inspect(bf)
	bf.Close()
	if err != nil {
		t.Fatalf("built archive does not verify: %v", err)
	}
	if man.Estimator != cmdScaleName || man.Revision != 7 || man.Fingerprint != "file:"+modelPath {
		t.Fatalf("built manifest = %+v", man)
	}
	if err := runBundle([]string{"inspect", "-bundle", bundlePath}); err != nil {
		t.Fatalf("bundle inspect: %v", err)
	}

	store := filepath.Join(dir, "store")
	for i := 0; i < 2; i++ {
		if err := runBundle([]string{"push", "-model", modelPath, "-store", store}); err != nil {
			t.Fatalf("bundle push #%d: %v", i+1, err)
		}
	}
	if err := runBundle([]string{"list", "-store", store}); err != nil {
		t.Fatalf("bundle list: %v", err)
	}
	if err := runBundle([]string{"rollback", "-store", store}); err != nil {
		t.Fatalf("bundle rollback: %v", err)
	}

	ds, err := bundle.NewDirStore(store)
	if err != nil {
		t.Fatal(err)
	}
	head, err := ds.Latest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if head != 3 {
		t.Fatalf("store head after push,push,rollback = %d, want 3", head)
	}
	hman, err := bundle.FetchManifest(context.Background(), ds, head)
	if err != nil {
		t.Fatal(err)
	}
	if hman.RollbackOf != 1 || hman.RolledBackFrom != 2 {
		t.Fatalf("rollback head manifest = %+v, want rollback_of 1 superseding 2", hman)
	}

	// Dispatch hygiene: unknown and missing subcommands fail with usage.
	if err := runBundle(nil); err == nil {
		t.Fatal("bundle with no subcommand must fail")
	}
	if err := runBundle([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown bundle subcommand must fail")
	}
	if err := run("bundle", []string{"inspect", "-bundle", bundlePath}); err != nil {
		t.Fatalf("top-level bundle dispatch: %v", err)
	}
}
