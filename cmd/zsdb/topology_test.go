package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// fleetOpts selects the optional tiers a test topology boots with —
// the -adapt and -bundle-dir halves of `zsdb serve`.
type fleetOpts struct {
	adapt   bool
	bundles bool
}

// bootReplicas assembles n serving replicas over the shared fixture the
// way runServe does: per-replica session, distributor, adaptation loop
// and in-process backend, one shared bundle control. A lone replica is
// named "local", several r0...
func bootReplicas(t *testing.T, n int, o fleetOpts, tracer *obs.Tracer, events *obs.Log) ([]*cluster.InProcess, *bundleControl) {
	t.Helper()
	f := sharedServeFixture(t)
	var bc *bundleControl
	if o.bundles {
		var err error
		if bc, err = newBundleControl(t.TempDir(), f.models, events); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(bc.close)
	}
	var replicas []*cluster.InProcess
	for i := 0; i < n; i++ {
		name := "local"
		if n > 1 {
			name = fmt.Sprintf("r%d", i)
		}
		sess := newTestSession(t, serving.Config{Tracer: tracer})
		var dist *bundle.Distributor
		if bc != nil {
			var err error
			if dist, err = bc.attach(name, sess, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		var loop *adapt.Loop
		if o.adapt {
			var err error
			loop, err = adapt.New(sess, adapt.Config{Model: costmodel.NameZeroShot, OnAccept: bc.onAccept(dist), Events: events, Origin: name})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(loop.Close)
		}
		b, err := cluster.NewInProcess(name, sess, loop)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, b)
	}
	if bc != nil {
		if err := bc.seed(context.Background(), f.models); err != nil {
			t.Fatal(err)
		}
	}
	return replicas, bc
}

func asBackends(replicas []*cluster.InProcess) []cluster.Backend {
	backends := make([]cluster.Backend, len(replicas))
	for i, b := range replicas {
		backends[i] = b
	}
	return backends
}

// routerOver registers backends in a fresh router.
func routerOver(t *testing.T, cfg cluster.Config, backends ...cluster.Backend) *cluster.Router {
	t.Helper()
	router := cluster.NewRouter(cfg)
	t.Cleanup(func() { router.Close() })
	for _, b := range backends {
		if err := router.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	return router
}

func serveHandler(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// bootServe is `zsdb serve`: one session behind the HTTP shim.
func bootServe(t *testing.T, o fleetOpts) string {
	t.Helper()
	tracer, events := obs.NewTracer(obs.TraceConfig{}), obs.NewLog()
	replicas, bc := bootReplicas(t, 1, o, tracer, events)
	srv := newSessionServer(replicas[0].Session, replicas[0].Loop())
	srv.bundles, srv.tracer, srv.events = bc, tracer, events
	return serveHandler(t, srv.mux())
}

// bootCluster is `zsdb serve -replicas n`: n mirrored in-process
// replicas behind the router, one HTTP front end.
func bootCluster(t *testing.T, n int, o fleetOpts) string {
	t.Helper()
	tracer, events := obs.NewTracer(obs.TraceConfig{}), obs.NewLog()
	replicas, bc := bootReplicas(t, n, o, tracer, events)
	srv := newRouterServer(routerOver(t, cluster.Config{Tracer: tracer, Events: events}, asBackends(replicas)...), replicas...)
	srv.bundles, srv.tracer, srv.events = bc, tracer, events
	return serveHandler(t, srv.mux())
}

// bootRoute is `zsdb route` over two `zsdb serve` processes named a
// and b.
func bootRoute(t *testing.T, o fleetOpts) string {
	t.Helper()
	var backends []cluster.Backend
	for _, name := range []string{"a", "b"} {
		hb, err := cluster.NewHTTPBackend(name, bootServe(t, o), nil)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, hb)
	}
	tracer, events := obs.NewTracer(obs.TraceConfig{}), obs.NewLog()
	srv := newRouterServer(routerOver(t, cluster.Config{CallTimeout: 5 * time.Second, Tracer: tracer, Events: events}, backends...))
	srv.tracer, srv.events = tracer, events
	return serveHandler(t, srv.mux())
}

// forEachTopology runs fn as a subtest against each shipped topology,
// freshly booted without adaptation or bundles: `zsdb serve`, `zsdb serve
// -replicas 4`, and `zsdb route` over two serves. What the API promises
// regardless of topology is asserted here once.
func forEachTopology(t *testing.T, fn func(t *testing.T, baseURL string)) {
	t.Helper()
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) { fn(t, topo.boot(t, fleetOpts{})) })
	}
}

var topologies = []struct {
	name string
	boot func(*testing.T, fleetOpts) string
}{
	{"serve", bootServe},
	{"replicas", func(t *testing.T, o fleetOpts) string { return bootCluster(t, 4, o) }},
	{"route", bootRoute},
}
