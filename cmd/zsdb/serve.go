package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/par"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// buildDatabase constructs one named serving database kind.
func buildDatabase(kind string, scale float64) (*storage.Database, error) {
	switch kind {
	case "imdb":
		return datagen.IMDBLike(scale)
	case "ssb":
		return datagen.SSBLike(scale)
	case "tpch":
		return datagen.TPCHLike(scale)
	default:
		return nil, fmt.Errorf("serve: unknown database kind %q (want imdb, ssb or tpch)", kind)
	}
}

// loadModels loads and validates every model file. Models load before
// databases build — they fail cheaply, while each database costs
// seconds of data generation.
func loadModels(modelPaths string) ([]costmodel.Estimator, error) {
	var models []costmodel.Estimator
	seen := map[string]bool{}
	for _, path := range strings.Split(modelPaths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		est, err := loadModelFile(path)
		if err != nil {
			return nil, err
		}
		// Serve-time plans are never executed, so a model encoding exact
		// cardinalities would fail every prediction — reject it at startup.
		if zs, ok := est.(*costmodel.ZeroShot); ok && zs.Card() == encoding.CardExact {
			return nil, fmt.Errorf("serve: %s was trained with exact cardinalities, which do not exist for unexecuted plans; retrain with -card estimated", path)
		}
		if seen[est.Name()] {
			return nil, fmt.Errorf("serve: two models named %q; serve one file per estimator kind", est.Name())
		}
		seen[est.Name()] = true
		models = append(models, est)
		fmt.Fprintf(os.Stderr, "loaded %s from %s\n", est.Name(), path)
	}
	return models, nil
}

// buildDatabases constructs the named serving databases concurrently
// (each costs seconds of data generation), returning them in flag
// order.
func buildDatabases(dbSpec string, dbScale float64) ([]string, []*storage.Database, error) {
	var kinds []string
	for _, kind := range strings.Split(dbSpec, ",") {
		if kind = strings.TrimSpace(kind); kind != "" {
			kinds = append(kinds, kind)
		}
	}
	if len(kinds) == 0 {
		return nil, nil, fmt.Errorf("serve: no databases attached (check -databases)")
	}
	dbs := make([]*storage.Database, len(kinds))
	errs := par.Each(context.Background(), len(kinds), func(i int) (err error) {
		dbs[i], err = buildDatabase(kinds[i], dbScale)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return kinds, dbs, nil
}

// assembleSession attaches pre-built databases and loaded models to a
// fresh session. Replicated cluster mode calls this once per replica
// over the same databases — the storage is shared, only the
// per-session pipeline state (statistics, plan caches, scheduler) is
// per-replica.
func assembleSession(cfg serving.Config, kinds []string, dbs []*storage.Database, models []costmodel.Estimator) (*serving.Session, error) {
	sess := serving.NewSession(cfg)
	for _, est := range models {
		if err := sess.AttachModel(est); err != nil {
			return nil, err
		}
	}
	for i, kind := range kinds {
		if err := sess.AttachDatabase(kind, dbs[i]); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// servedModel names the one model serve adapts and the bundle tier
// ships: the loaded model that can adapt (Clone and FineTune; only the
// zero-shot model can, and loadModels refuses two of one name), or
// else, when not adapting, the only loaded model. With one name for
// both, every replica's distributor accepts an adapted clone's bundle.
func servedModel(models []costmodel.Estimator, adapting bool) (string, error) {
	names := make([]string, len(models))
	for i, est := range models {
		if _, ok := est.(costmodel.Tuner); ok {
			return est.Name(), nil
		}
		names[i] = est.Name()
	}
	if adapting {
		return "", fmt.Errorf("serve: -adapt needs a model supporting Clone and FineTune; none of %v does", names)
	}
	if len(models) != 1 {
		return "", fmt.Errorf("serve: the bundle tier ships one model, and none of %v can adapt; serve one of them", names)
	}
	return names[0], nil
}

// serveUntilSignal runs the HTTP server until a shutdown signal arrives,
// then drains: stop accepting connections, let in-flight handlers finish
// (bounded by drainTimeout), and close the backing replica — or, in
// cluster mode, the router and every replica behind it — so queued
// micro-batches still answer before the process exits.
func serveUntilSignal(httpSrv *http.Server, ln net.Listener, backing io.Closer, sigs <-chan os.Signal) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		backing.Close()
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "zsdb serve: %v received, draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		shutdownErr := httpSrv.Shutdown(ctx)
		backing.Close()
		<-serveErr // http.ErrServerClosed once Shutdown completes
		return shutdownErr
	}
}

// The listeners' connection bounds. readTimeout bounds a whole
// request, body included, from its first byte: with maxBodyBytes it
// bounds a slow POST in time as well as size (a full 16 MiB body needs
// about 1.7 MB/s), so a client trickling its body cannot hold a
// connection and a handler goroutine open indefinitely. It covers every
// route, including one that answers without reading the body, whose
// unread rest net/http discards after the handler. It does not cut a
// call that outlasts it: net/http clears the connection's read deadline
// when a handler reads the body to its end (decode always does) and its
// background read begins, so the request's context lives on until the
// client goes away; a bodiless GET's deadline is cleared as soon as its
// headers are read, so a pprof ?seconds= profile runs to the end too.
// idleTimeout closes a keep-alive connection left idle between
// requests; it is longer than the 90 s an HTTPBackend's transport (a
// clone of http.DefaultTransport) keeps an idle connection, so the
// router closes first and never sends a POST down a connection the
// server is closing.
//
// There is no WriteTimeout: it runs from the end of the request
// headers to the end of the reply, handler included, so a long what-if
// sweep would lose its reply. The debug listener has none either, since
// newHTTPServer builds it too (net/http/pprof stretches a WriteTimeout
// for its own ?seconds= profiles, but not for any other handler).
//
// drainTimeout bounds a graceful shutdown, serve's and route's alike:
// how long in-flight handlers may run on after SIGINT or SIGTERM.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 10 * time.Second
)

// newHTTPServer is the one http.Server constructor: the serving listener
// of serve and route alike, and the -debug-addr pprof listener. Both pass
// readTimeout as timeout; tests that wait the bound out pass a shorter one.
func newHTTPServer(handler http.Handler, timeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       timeout,
		IdleTimeout:       idleTimeout,
	}
}

// listenAndServe is the shared tail of serve and route: listen on addr,
// announce "<banner> on <address>" (tools that start a node on port 0
// learn the port from that line), and serve handler until SIGINT or
// SIGTERM, closing backing on the way out — also when listening fails.
func listenAndServe(addr string, handler http.Handler, backing io.Closer, banner string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		backing.Close()
		return err
	}
	httpSrv := newHTTPServer(handler, readTimeout)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	fmt.Fprintf(os.Stderr, "%s on %s\n", banner, ln.Addr())
	err = serveUntilSignal(httpSrv, ln, backing, sigs)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// adaptFlags carries the -adapt flag into session assembly.
type adaptFlags struct {
	on bool
	// events, when non-nil, receives the loop's control-plane decisions
	// (drift triggers, swap verdicts) in the process-wide event log.
	events *obs.Log
}

// newLoopFor builds and starts one session's adaptation loop over
// models' servedModel (nil when -adapt is off). onAccept, when non-nil,
// hooks the accept path — the bundle publisher's entry point. origin
// names this session in recorded events (the replica name, or "local").
func (a adaptFlags) newLoopFor(sess *serving.Session, models []costmodel.Estimator, onAccept func(context.Context, costmodel.Estimator, adapt.ShadowEval, int), origin string) (*adapt.Loop, error) {
	if !a.on {
		return nil, nil
	}
	model, err := servedModel(models, true)
	if err != nil {
		return nil, err
	}
	loop, err := adapt.New(sess, adapt.Config{
		Model:    model,
		OnAccept: onAccept,
		Events:   a.events,
		Origin:   origin,
	})
	if err != nil {
		return nil, err
	}
	loop.Start()
	return loop, nil
}

// buildReplicas assembles n mirrored in-process replicas — each a full
// serving session over the SAME storage (per-replica statistics, plan
// caches and schedulers; shared column data), with its own bundle
// distributor and adaptation loop when those tiers are on. A lone
// replica is named "local", several r0, r1, ...; the names show in
// /v1/bundles and as event origins. Closing a replica stops its loop,
// then its session.
func buildReplicas(cfg serving.Config, dbSpec string, dbScale float64, modelPaths string, n int, af adaptFlags, bundleDir string) ([]*cluster.InProcess, *bundleControl, error) {
	models, err := loadModels(modelPaths)
	if err != nil {
		return nil, nil, err
	}
	// The publisher and distributors share the process's event log, so
	// one /v1/events read shows swaps, publishes and health transitions
	// interleaved in sequence order.
	bc, err := newBundleControl(bundleDir, models, af.events)
	if err != nil {
		return nil, nil, err
	}
	kinds, dbs, err := buildDatabases(dbSpec, dbScale)
	if err != nil {
		return nil, nil, err
	}
	var replicas []*cluster.InProcess
	fail := func(err error) ([]*cluster.InProcess, *bundleControl, error) {
		bc.close()
		for _, b := range replicas {
			b.Close()
		}
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		name := "local"
		if n > 1 {
			name = fmt.Sprintf("r%d", i)
		}
		sess, err := assembleSession(cfg, kinds, dbs, models)
		if err != nil {
			return fail(err)
		}
		// The distributor attaches before the loop so an accepted
		// adaptation can mark its own replica as already activated.
		var dist *bundle.Distributor
		if bc != nil {
			if dist, err = bc.attach(name, sess, bundle.DefaultInterval); err != nil {
				return fail(err)
			}
		}
		loop, err := af.newLoopFor(sess, models, bc.onAccept(dist), name)
		if err != nil {
			return fail(err)
		}
		b, err := cluster.NewInProcess(name, sess, loop)
		if err != nil {
			return fail(err)
		}
		replicas = append(replicas, b)
	}
	if bc != nil {
		if err := bc.seed(context.Background(), models); err != nil {
			return fail(err)
		}
	}
	for i, kind := range kinds {
		fmt.Fprintf(os.Stderr, "attached database %s (%s, scale %g) to %d replica(s)\n", kind, dbs[i].Schema.Name, dbScale, n)
	}
	return replicas, bc, nil
}

// replicaCallTimeout bounds each routed attempt on an in-process
// replica under -replicas N: no network sits between the router and
// its replicas, so a slower attempt is a stuck replica, and it fails
// over.
const replicaCallTimeout = 10 * time.Second

// runServe loads the model files, attaches the serving databases, and
// serves the prediction API until SIGINT/SIGTERM. With -replicas N > 1
// the same binary runs a sharded cluster: N mirrored in-process
// replicas behind the consistent-hash router, one HTTP front end.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	modelPaths := fs.String("models", "", "comma-separated saved model files (required)")
	addr := fs.String("addr", ":8080", "listen address")
	databases := fs.String("databases", "imdb", "comma-separated serving databases to attach: imdb, ssb, tpch")
	dbScale := fs.Float64("dbscale", 0.1, "serving database scale")
	replicas := fs.Int("replicas", 1, "in-process replica count; >1 serves a sharded cluster behind the consistent-hash router")
	adaptOn := fs.Bool("adapt", false, "enable online adaptation: /v1/feedback runtimes fine-tune the model in the background and hot-swap improved generations")
	bundleDir := fs.String("bundle-dir", "", "bundle store directory: replicas poll it for new model revisions, and accepted adaptations publish into it (empty = bundles off)")
	var of obsFlags
	of.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPaths == "" {
		return fmt.Errorf("serve: -models is required")
	}
	if *replicas < 1 {
		return fmt.Errorf("serve: -replicas must be >= 1, got %d", *replicas)
	}
	tracer, events := of.build()
	stopDebug, err := of.startDebug()
	if err != nil {
		return err
	}
	defer stopDebug()
	cfg := serving.Config{Tracer: tracer} // a zero PlanCacheSize is costmodel.DefaultPlanCacheSize
	af := adaptFlags{on: *adaptOn, events: events}
	built, bc, err := buildReplicas(cfg, *databases, *dbScale, *modelPaths, *replicas, af, *bundleDir)
	if err != nil {
		return err
	}
	defer bc.close()
	if loop := built[0].Loop(); loop != nil {
		fmt.Fprintf(os.Stderr, "online adaptation enabled for %s on %d replica(s) (POST /v1/feedback)\n", loop.Status().Model, *replicas)
	}
	if bc != nil {
		fmt.Fprintf(os.Stderr, "bundle distribution enabled: %s polled every %v by %d replica(s)\n", *bundleDir, bundle.DefaultInterval, *replicas)
	}

	var (
		srv     *apiServer
		backing io.Closer
		banner  string
	)
	if *replicas == 1 {
		// A lone replica is served directly: a one-replica router would put
		// a ring lookup, health marks and a route span on every request, and
		// answer the GET documents in the cluster's shape.
		lone := built[0]
		srv, backing = newSessionServer(lone.Session, lone.Loop()), lone
		models, databases := lone.Counts()
		banner = fmt.Sprintf("serving %d model(s) over %d database(s)", models, databases)
	} else {
		// Requests for one database always land on its owning replica, so
		// plan-cache and adaptation-window locality survives the fan-in,
		// and any replica can rescue any database on failover because the
		// mirrored attachment is total.
		router := cluster.NewRouter(cluster.Config{
			CallTimeout:    replicaCallTimeout,
			HealthInterval: healthInterval,
			Tracer:         tracer,
			Events:         events,
		})
		for _, b := range built {
			if err := router.Register(b); err != nil {
				router.Close()
				return err
			}
		}
		srv = newRouterServer(router, built...)
		backing = router
		banner = fmt.Sprintf("serving %d replica(s)", *replicas)
	}
	srv.bundles, srv.tracer, srv.events = bc, tracer, events
	return listenAndServe(*addr, srv.mux(), backing, banner)
}
