package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// bundleControl owns one serve process's bundle plumbing: the shared
// store and publisher, plus each replica's distributor. It backs
// GET/POST /v1/bundles on both the single-session and cluster servers,
// and the bundles section of /v1/stats.
type bundleControl struct {
	estimator string
	store     *bundle.DirStore
	pub       *bundle.Publisher
	dists     map[string]*bundle.Distributor // keyed by replica name
	// events is the process-wide control-plane log every publish,
	// activation and rollback records into (nil disables).
	events *obs.Log
}

// newBundleControl opens the store in dir (-bundle-dir) and its
// publisher for models' servedModel; an empty dir means bundle
// distribution is off. Distributors attach per replica afterwards.
// events, when non-nil, receives every bundle publish/activate/rollback.
func newBundleControl(dir string, models []costmodel.Estimator, events *obs.Log) (*bundleControl, error) {
	if dir == "" {
		return nil, nil
	}
	estName, err := servedModel(models, false)
	if err != nil {
		return nil, err
	}
	store, err := bundle.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	return &bundleControl{
		estimator: estName,
		store:     store,
		pub:       bundle.NewPublisher(store, bundle.DefaultRetain).WithEvents(events),
		dists:     map[string]*bundle.Distributor{},
		events:    events,
	}, nil
}

// attach wires one replica's distributor onto its session and starts
// its poll loop.
func (bc *bundleControl) attach(replica string, sess *serving.Session, poll time.Duration) (*bundle.Distributor, error) {
	d, err := bundle.NewDistributor(bundle.DistConfig{
		Store:     bc.store,
		Target:    sess,
		Estimator: bc.estimator,
		Interval:  poll,
		Events:    bc.events,
		Origin:    replica,
	})
	if err != nil {
		return nil, err
	}
	bc.dists[replica] = d
	d.Start()
	return d, nil
}

// seed publishes the boot model as the first revision when the store is
// empty — so a later rollback always has a "prior generation" to land
// on, and replicas joining a fresh fleet converge on exactly the model
// the process booted with. Every attached distributor is marked: the
// boot model is already serving, re-downloading it would bump the
// generation for nothing. With a non-empty store the head is NEWER than
// the boot model (a previous fleet's adaptations) and the distributors
// are left to converge onto it by polling.
func (bc *bundleControl) seed(ctx context.Context, models []costmodel.Estimator) error {
	if _, err := bc.store.Latest(ctx); !errors.Is(err, bundle.ErrNotFound) {
		return err // nil when revisions exist
	}
	for _, est := range models {
		if est.Name() != bc.estimator {
			continue
		}
		man, err := bc.pub.Publish(ctx, est, bundle.Meta{Fingerprint: "boot"})
		if err != nil {
			return fmt.Errorf("serve: seed bundle store: %w", err)
		}
		for _, d := range bc.dists {
			d.MarkActivated(man)
		}
		fmt.Fprintf(os.Stderr, "seeded bundle store with boot %s as revision %d\n", bc.estimator, man.Revision)
		return nil
	}
	return fmt.Errorf("serve: bundle model %q not among the loaded models", bc.estimator)
}

// onAccept bridges one replica's adaptation loop into the publisher: an
// accepted hot-swap becomes the next fleet-wide bundle revision, and
// the publishing replica's own distributor is marked so it does not
// re-download what it already serves. Publish failures are logged, not
// fatal — the swap is already live locally; the next accept retries.
func (bc *bundleControl) onAccept(dist *bundle.Distributor) func(context.Context, costmodel.Estimator, adapt.ShadowEval, int) {
	if bc == nil {
		return nil
	}
	return func(ctx context.Context, est costmodel.Estimator, eval adapt.ShadowEval, samples int) {
		man, err := bc.pub.Publish(ctx, est, bundle.Meta{
			Fingerprint: "adapt:" + eval.Database,
			Samples:     samples,
			Shadow: &bundle.ShadowMetrics{
				Database:   eval.Database,
				OldMedianQ: eval.OldMedian,
				NewMedianQ: eval.NewMedian,
				Holdout:    eval.Holdout,
				At:         eval.At,
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "zsdb: bundle publish after accepted swap failed: %v\n", err)
			return
		}
		if dist != nil {
			dist.MarkActivated(man)
		}
	}
}

// statuses snapshots every replica's distributor, keyed by replica name.
func (bc *bundleControl) statuses() map[string]bundle.Status {
	out := make(map[string]bundle.Status, len(bc.dists))
	for name, d := range bc.dists {
		out[name] = d.Status()
	}
	return out
}

// refresh polls every distributor once, returning the first error.
func (bc *bundleControl) refresh(ctx context.Context) error {
	names := make([]string, 0, len(bc.dists))
	for name := range bc.dists {
		names = append(names, name)
	}
	sort.Strings(names)
	var firstErr error
	for _, name := range names {
		if _, err := bc.dists[name].PollOnce(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
	}
	return firstErr
}

// rollback republishes a retained revision as the new head (durable,
// fleet-wide: pollers everywhere converge onto it) and immediately
// polls the local distributors so this process does not wait out an
// interval.
func (bc *bundleControl) rollback(ctx context.Context, revision int64) (bundle.Manifest, error) {
	man, err := bc.pub.Rollback(ctx, revision)
	if err != nil {
		return bundle.Manifest{}, err
	}
	if err := bc.refresh(ctx); err != nil {
		return man, fmt.Errorf("rolled back to revision %d as %d, but re-poll failed: %w", man.RollbackOf, man.Revision, err)
	}
	return man, nil
}

// close stops every distributor's poll loop.
func (bc *bundleControl) close() {
	if bc == nil {
		return
	}
	for _, d := range bc.dists {
		d.Close()
	}
}

// bundlesRequest is the POST /v1/bundles body.
type bundlesRequest struct {
	// Action is "refresh" (poll every replica's distributor now) or
	// "rollback" (republish a retained revision as the new head).
	Action string `json:"action"`
	// Revision is the rollback target; 0 means the revision before the
	// current head.
	Revision int64 `json:"revision"`
}

// handleBundles serves GET/POST /v1/bundles for both the single-session
// and cluster servers — the bundleControl is the same shape either way,
// single-session just has one distributor under the "local" key.
func handleBundles(bc *bundleControl) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if bc == nil {
			httpError(w, http.StatusNotFound, "bundle distribution is disabled (restart with -bundle-dir)")
			return
		}
		switch r.Method {
		case http.MethodGet:
			revs, err := bundle.List(r.Context(), bc.store)
			body := map[string]any{
				"estimator": bc.estimator,
				"retain":    bc.pub.Retain(),
				"revisions": revs,
				"replicas":  bc.statuses(),
			}
			if err != nil {
				// Corrupt retained revisions are worth surfacing, but the
				// listing itself still answers.
				body["error"] = err.Error()
			}
			writeJSON(w, body)
		case http.MethodPost:
			var req bundlesRequest
			buf, ok := decode(w, r, &req)
			if !ok {
				return
			}
			putBuf(buf)
			switch req.Action {
			case "refresh":
				if err := bc.refresh(r.Context()); err != nil {
					httpError(w, http.StatusBadGateway, "refresh: %v", err)
					return
				}
				writeJSON(w, map[string]any{"status": "refreshed", "replicas": bc.statuses()})
			case "rollback":
				man, err := bc.rollback(r.Context(), req.Revision)
				if err != nil {
					code := http.StatusInternalServerError
					if errors.Is(err, bundle.ErrNotFound) {
						code = http.StatusNotFound
					}
					httpError(w, code, "rollback: %v", err)
					return
				}
				writeJSON(w, map[string]any{"status": "rolled_back", "manifest": man, "replicas": bc.statuses()})
			default:
				httpError(w, http.StatusBadRequest, "unknown action %q (want refresh or rollback)", req.Action)
			}
		default:
			httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
		}
	}
}

// runBundle dispatches the zsdb bundle subcommands: offline builds and
// inspections, plus store-level push/list/rollback against the same
// directory a serve fleet polls.
func runBundle(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("bundle: want a subcommand: build, inspect, push, list or rollback")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "build":
		return runBundleBuild(rest)
	case "inspect":
		return runBundleInspect(rest)
	case "push":
		return runBundlePush(rest)
	case "list":
		return runBundleList(rest)
	case "rollback":
		return runBundleRollback(rest)
	default:
		return fmt.Errorf("bundle: unknown subcommand %q (want build, inspect, push, list or rollback)", sub)
	}
}

// runBundleBuild wraps a saved model file into a standalone bundle
// archive — the artifact form for copying between environments; use
// push to enter it into a store's revision sequence.
func runBundleBuild(args []string) error {
	fs := flag.NewFlagSet("bundle build", flag.ContinueOnError)
	modelPath := fs.String("model", "", "saved model file to wrap (required)")
	out := fs.String("out", "model-bundle.tgz", "output bundle path")
	revision := fs.Int64("revision", 1, "manifest revision")
	fingerprint := fs.String("fingerprint", "", "training fingerprint (default: file:<model path>)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("bundle build: -model is required")
	}
	est, err := loadModelFile(*modelPath)
	if err != nil {
		return err
	}
	fp := *fingerprint
	if fp == "" {
		fp = "file:" + *modelPath
	}
	var man bundle.Manifest
	err = bundle.WriteFile(*out, func(w io.Writer) (err error) {
		man, err = bundle.Build(w, est, *revision, bundle.Meta{Fingerprint: fp})
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("built %s revision %d (%s) -> %s\n", man.Estimator, man.Revision, shortDigest(man.SHA256), *out)
	return nil
}

// runBundleInspect verifies a bundle archive and prints its manifest.
func runBundleInspect(args []string) error {
	fs := flag.NewFlagSet("bundle inspect", flag.ContinueOnError)
	path := fs.String("bundle", "", "bundle archive to inspect (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("bundle inspect: -bundle is required")
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer f.Close()
	man, err := bundle.Inspect(f)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runBundlePush publishes a saved model file into a store as the next
// revision — the manual counterpart of the adaptation loop's automatic
// publish; serve fleets polling the store pick it up within a poll.
func runBundlePush(args []string) error {
	fs := flag.NewFlagSet("bundle push", flag.ContinueOnError)
	modelPath := fs.String("model", "", "saved model file to publish (required)")
	dir := fs.String("store", "", "bundle store directory (required)")
	fingerprint := fs.String("fingerprint", "", "training fingerprint (default: file:<model path>)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *dir == "" {
		return fmt.Errorf("bundle push: -model and -store are required")
	}
	est, err := loadModelFile(*modelPath)
	if err != nil {
		return err
	}
	store, err := bundle.NewDirStore(*dir)
	if err != nil {
		return err
	}
	fp := *fingerprint
	if fp == "" {
		fp = "file:" + *modelPath
	}
	man, err := bundle.NewPublisher(store, bundle.DefaultRetain).Publish(context.Background(), est, bundle.Meta{Fingerprint: fp})
	if err != nil {
		return err
	}
	fmt.Printf("pushed %s revision %d (%s) to %s\n", man.Estimator, man.Revision, shortDigest(man.SHA256), *dir)
	return nil
}

// runBundleList prints every retained revision's manifest summary.
func runBundleList(args []string) error {
	fs := flag.NewFlagSet("bundle list", flag.ContinueOnError)
	dir := fs.String("store", "", "bundle store directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("bundle list: -store is required")
	}
	store, err := bundle.NewDirStore(*dir)
	if err != nil {
		return err
	}
	mans, listErr := bundle.List(context.Background(), store)
	for _, man := range mans {
		if man.Estimator == "" {
			fmt.Printf("rev %-4d UNVERIFIABLE\n", man.Revision)
			continue
		}
		line := fmt.Sprintf("rev %-4d %-10s %s  %s  %s", man.Revision, man.Estimator,
			shortDigest(man.SHA256), man.CreatedAt.Format(time.RFC3339), man.Fingerprint)
		if man.RollbackOf != 0 {
			line += fmt.Sprintf("  (rollback of %d, superseding %d)", man.RollbackOf, man.RolledBackFrom)
		}
		if man.Shadow != nil {
			line += fmt.Sprintf("  shadow %s: %.3f -> %.3f", man.Shadow.Database, man.Shadow.OldMedianQ, man.Shadow.NewMedianQ)
		}
		fmt.Println(line)
	}
	return listErr
}

// runBundleRollback republishes a retained revision as the new head —
// every serve node polling the store converges onto the restored model
// within one poll interval.
func runBundleRollback(args []string) error {
	fs := flag.NewFlagSet("bundle rollback", flag.ContinueOnError)
	dir := fs.String("store", "", "bundle store directory (required)")
	to := fs.Int64("to", 0, "revision to restore (0 = the one before the current head)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("bundle rollback: -store is required")
	}
	store, err := bundle.NewDirStore(*dir)
	if err != nil {
		return err
	}
	man, err := bundle.NewPublisher(store, bundle.DefaultRetain).Rollback(context.Background(), *to)
	if err != nil {
		return err
	}
	fmt.Printf("rolled back to revision %d, republished as head revision %d (%s)\n",
		man.RollbackOf, man.Revision, shortDigest(man.SHA256))
	return nil
}

// shortDigest truncates a checksum for human output.
func shortDigest(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}
