package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// countingBackend boots a stand-in replica that answers every request
// with an empty JSON object, and an HTTPBackend (default client) over
// it; dials counts the TCP connections the replica accepted.
func countingBackend(t *testing.T, name string) (hb *HTTPBackend, dials *atomic.Int64) {
	t.Helper()
	dials = new(atomic.Int64)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}\n"))
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	hb, err := NewHTTPBackend(name, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	return hb, dials
}

// TestHTTPBackendReusesConnectionsUnderConcurrency: a backend keeps as
// many idle connections as it has concurrent callers. On the process-
// wide default transport (two idle connections per host) the third
// caller's connection was closed on return, and 8 000 calls from 16
// goroutines dialled the replica hundreds of times.
func TestHTTPBackendReusesConnectionsUnderConcurrency(t *testing.T) {
	hb, dials := countingBackend(t, "a")
	const callers, calls = 16, 500
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := hb.Health(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// One connection per caller, plus slack for a dial that raced a
	// connection on its way back to the idle pool.
	if n := dials.Load(); n > 2*callers {
		t.Fatalf("%d calls from %d goroutines opened %d connections, want <= %d", callers*calls, callers, n, 2*callers)
	}
}

// TestHTTPBackendCloseLeavesOtherBackendsConnected: Close releases the
// backend's own idle connections and nobody else's. With every backend
// on http.DefaultTransport, deregistering one replica severed the
// keep-alives to all the others.
func TestHTTPBackendCloseLeavesOtherBackendsConnected(t *testing.T) {
	a, aDials := countingBackend(t, "a")
	b, bDials := countingBackend(t, "b")
	ctx := context.Background()
	for _, hb := range []*HTTPBackend{a, b} {
		if err := hb.Health(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if n := bDials.Load(); n != 1 {
		t.Fatalf("closing backend a cost backend b its connection: b dialled %d times, want 1", n)
	}
	// a itself really let go: its next call dials again.
	if err := a.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if n := aDials.Load(); n != 2 {
		t.Fatalf("backend a dialled %d times across a Close, want 2", n)
	}
}
