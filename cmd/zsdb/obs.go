package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/obs"
)

// obsFlags carries the shared observability flag values for zsdb serve
// and zsdb route: trace sampling and the optional pprof debug listener.
type obsFlags struct {
	sample    int
	debugAddr string
}

// slowQueryThreshold is the always-on slow-query log's bar: a request
// at least this slow is recorded even when sampling is off.
const slowQueryThreshold = 250 * time.Millisecond

// register wires the observability flags onto a command's flag set.
func (o *obsFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&o.sample, "trace-sample", 0, "record a full pipeline trace for every Nth request (0 = sampling off; the slow-query log stays on)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = off)")
}

// build constructs the process-wide tracer and control-plane event log.
// One of each per process: in-process replicas, the router, adaptation
// loops and bundle distributors all share them, distinguished by the
// trace DB / event origin fields.
func (o *obsFlags) build() (*obs.Tracer, *obs.Log) {
	return obs.NewTracer(obs.TraceConfig{
		SampleEvery:   o.sample,
		SlowThreshold: slowQueryThreshold,
	}), obs.NewLog()
}

// startDebug starts the pprof listener when -debug-addr is set. The
// profiling surface stays off the serving mux on purpose: it must never
// be reachable through a port an operator exposed for predictions. Its
// announcement is a URL, not "... on <address>": that shape belongs to
// listenAndServe's banner alone, which is where tools that start a node
// on port 0 read the API address from, and this line comes first.
func (o *obsFlags) startDebug() (func(), error) {
	if o.debugAddr == "" {
		return func() {}, nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", o.debugAddr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	stop := serveDebug(ln, mux, readTimeout)
	fmt.Fprintf(os.Stderr, "pprof debug server: http://%s/debug/pprof/\n", ln.Addr())
	return stop, nil
}

// serveDebug serves mux on ln until stop is called. It alone builds and
// holds the debug listener's server, so a test drives the one it runs.
func serveDebug(ln net.Listener, mux http.Handler, timeout time.Duration) (stop func()) {
	srv := newHTTPServer(mux, timeout)
	go srv.Serve(ln)
	return func() { srv.Close() }
}

// handleTraces serves GET /v1/debug/traces: the sampled recent ring and
// the always-on slow-query ring, newest first. ?n= caps each list.
func handleTraces(tr *obs.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			httpError(w, http.StatusNotFound, "tracing is not wired on this server")
			return
		}
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 0 {
				httpError(w, http.StatusBadRequest, "n must be a non-negative integer")
				return
			}
			n = parsed
		}
		writeJSON(w, tr.Snapshot(n))
	}
}

// handleEvents serves GET /v1/events?since=N: the control-plane event
// ring forward from (exclusive) sequence N. Pollers resume from the
// last seq they saw; a response whose first event jumps past since+1
// tells them the ring evicted history in between.
func handleEvents(l *obs.Log) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if l == nil {
			httpError(w, http.StatusNotFound, "the event log is not wired on this server")
			return
		}
		q := r.URL.Query()
		var since int64
		if v := q.Get("since"); v != "" {
			parsed, err := strconv.ParseInt(v, 10, 64)
			if err != nil || parsed < 0 {
				httpError(w, http.StatusBadRequest, "since must be a non-negative integer")
				return
			}
			since = parsed
		}
		max := 256
		if v := q.Get("max"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed <= 0 {
				httpError(w, http.StatusBadRequest, "max must be a positive integer")
				return
			}
			max = parsed
		}
		events := l.Since(since, max)
		if events == nil {
			events = []obs.Event{}
		}
		writeJSON(w, map[string]any{"head": l.Head(), "events": events})
	}
}
