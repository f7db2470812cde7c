package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// apiServer is the one HTTP shim of `zsdb serve`, `zsdb serve -replicas
// N` and `zsdb route`: handlers decode JSON, make one call, and map its
// error onto a status through cluster.StatusFor. All serving logic —
// pipelines, plan caching, micro-batching, routing, failover, adaptation
// — lives behind the two values a topology plugs in: calls answers the
// four POST routes, view serves the GET documents. The wire structs and
// the status table are cluster's (wire.go), shared with HTTPBackend.
type apiServer struct {
	calls calls
	view  view
	// bundles is the model-bundle control plane (store, publisher, every
	// local replica's distributor). nil without -bundle-dir — and in
	// route mode, where each serve node owns its own store.
	bundles *bundleControl
	// tracer and events are the process-wide observability surfaces
	// behind /v1/debug/traces and /v1/events (404 when unwired).
	tracer *obs.Tracer
	events *obs.Log
}

// calls is the POST side of the API. *cluster.Router satisfies it as
// is, so clients cannot tell one replica from many; sessionCalls adapts
// a lone session. A batch's statements are borrowed for the duration of
// the call: they alias the pooled request buffer, which the handler
// reuses once its reply is written.
type calls interface {
	Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error)
	PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error)
	WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error)
	Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error
}

// view is the GET side: /healthz, /v1/models, /v1/databases, /v1/stats
// and /v1/adapt/status are different documents for a session and for a
// router (and /v1/cluster exists only for a router), so each topology
// registers its own through get, which applies the method guard. bc is
// the server's bundle control, whose counters ride in /v1/stats.
type view interface {
	register(get func(path string, h http.HandlerFunc), bc *bundleControl)
}

// sessionCalls answers the four calls from one session and its
// adaptation loop, errors untouched. It is not a cluster.InProcess
// because that rewords a join miss and a closed session into the
// classes a router fails over on, and a lone server's replies are
// pinned byte for byte.
type sessionCalls struct {
	*serving.Session
	// loop is nil without -adapt; handleFeedback answers before calling.
	loop *adapt.Loop
}

func (c sessionCalls) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	return c.loop.Feedback(ctx, db, fingerprint, actualSec)
}

// newSessionServer is the shim over one session (`zsdb serve`); loop is
// its adaptation controller, nil unless -adapt.
func newSessionServer(sess *serving.Session, loop *adapt.Loop) *apiServer {
	return &apiServer{calls: sessionCalls{sess, loop}, view: sessionView{sess, loop}}
}

// newRouterServer is the shim over a router (`zsdb serve -replicas N`,
// `zsdb route`). local lists the router's in-process replicas, whose
// adaptation loops /v1/adapt/status reports; route mode has none — each
// remote node owns its own /v1/adapt/status.
func newRouterServer(router *cluster.Router, local ...*cluster.InProcess) *apiServer {
	loops := map[string]*adapt.Loop{}
	for _, b := range local {
		if b.Loop() != nil {
			loops[b.Name()] = b.Loop()
		}
	}
	return &apiServer{calls: router, view: routerView{router, loops}}
}

// mux wires the JSON API.
func (s *apiServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	get := func(path string, h http.HandlerFunc) { mux.HandleFunc(path, method(http.MethodGet, h)) }
	mux.HandleFunc("/v1/predict", method(http.MethodPost, s.handlePredict))
	mux.HandleFunc("/v1/predict_batch", method(http.MethodPost, s.handlePredictBatch))
	mux.HandleFunc("/v1/whatif", method(http.MethodPost, s.handleWhatIf))
	mux.HandleFunc("/v1/feedback", method(http.MethodPost, s.handleFeedback))
	s.view.register(get, s.bundles)
	get("/v1/debug/traces", handleTraces(s.tracer))
	get("/v1/events", handleEvents(s.events))
	// GET and POST both: the handler guards its own verbs.
	mux.HandleFunc("/v1/bundles", handleBundles(s.bundles))
	return mux
}

// method is the one verb guard. Go 1.22 "GET /path" mux patterns are
// not a substitute: their 405 is plain text, and clients parse the JSON
// envelope.
func method(verb string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != verb {
			httpError(w, http.StatusMethodNotAllowed, "%s only", verb)
			return
		}
		h(w, r)
	}
}

// maxBodyBytes bounds one request body: about ten times a request of
// maxBatch typical statements.
const maxBodyBytes = 16 << 20

// maxPooledBuf caps the buffers bufPool keeps: a rare large body or
// reply is read or written into a buffer the pool then drops, so one
// 16 MiB request cannot keep 16 MiB resident per pooled buffer.
const maxPooledBuf = 1 << 20

// wireBuf is a pooled buffer a request body is read into or a reply
// encoded into. It owns its encoder, so a reply allocates none; a
// bytes.Buffer never fails a Write, so the encoder never keeps an error
// from one reply to the next. It owns its body decoder too, whose text
// buffer and statement slice a batch's statements borrow.
type wireBuf struct {
	bytes.Buffer
	enc *json.Encoder
	dec cluster.Decoder
}

// bufPool holds the wireBufs. A batch's statements alias the body's
// buffer, so a handler returns it only after its reply is written.
var bufPool = sync.Pool{New: func() any {
	b := new(wireBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

func getBuf() *wireBuf { return bufPool.Get().(*wireBuf) }

func putBuf(b *wireBuf) {
	b.dec.Release()
	if b.Cap() > maxPooledBuf || b.dec.Size() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// decode is the one request-body reader: it bounds the body, decodes it
// into v, and answers a body it cannot use itself (false = answered).
// The body is read whole into a pooled buffer and decoded by the
// buffer's cluster.Decoder; a body outside its subset, or a read that
// failed, is replayed through encoding/json (the same bytes, then the
// same error), which keeps encoding/json the specification and the only
// source of error text. A batch's statements are borrowed from the
// buffer, so decode hands it to the caller, who returns it to the pool
// (putBuf) once the reply is written; after a false it is back already.
func decode(w http.ResponseWriter, r *http.Request, v any) (*wireBuf, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := getBuf()
	_, err := buf.ReadFrom(r.Body)
	b := buf.Bytes()
	if err == nil && buf.dec.Decode(b, v) {
		return buf, true
	}
	var replay io.Reader = bytes.NewReader(b)
	if err != nil {
		replay = io.MultiReader(replay, errReader{err})
	}
	if err = json.NewDecoder(replay).Decode(v); err == nil {
		return buf, true
	}
	// Malformed JSON is a 400; only the table's own verdict on an
	// overflowing body (413) overrides that.
	status, _ := cluster.StatusFor(err)
	if status != http.StatusRequestEntityTooLarge {
		status = http.StatusBadRequest
	}
	putBuf(buf)
	httpError(w, status, "bad request body: %v", err)
	return nil, false
}

// errReader fails every read with err: the tail of a replayed body.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// httpError writes the uniform JSON error envelope for a condition the
// shim detects itself: wrong verb, unusable body, missing field.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	httpErrorCode(w, status, "", format, args...)
}

// httpErrorCode is httpError plus a machine-readable "code" field, for
// conditions remote routers must classify without parsing prose (the
// cluster HTTP backend keys on it).
func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeStatus(w, status, cluster.ErrorBody{Code: code, Error: fmt.Sprintf(format, args...)})
}

// writeError answers an error a call returned, by the one status table.
func writeError(w http.ResponseWriter, err error) {
	status, code := cluster.StatusFor(err)
	httpErrorCode(w, status, code, "%v", err)
}

// writeJSON answers 200 with v.
func writeJSON(w http.ResponseWriter, v any) { writeStatus(w, http.StatusOK, v) }

// writeStatus is the one reply writer: json.Encoder encodes v into a
// pooled buffer, and the reply goes out in one Write with its
// Content-Length. A value encoding/json refuses (NaN or ±Inf in a float)
// is answered 500 with the error envelope; the encoder writes nothing
// before it fails.
func writeStatus(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := buf.enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.enc.Encode(cluster.ErrorBody{Error: fmt.Sprintf("encode reply: %v", err)})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// handlePredict replies with the serving.Prediction as is: its JSON
// tags are the wire format. Fingerprint is the handle a client hands
// back to /v1/feedback once it observes the query's actual runtime.
func (s *apiServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req cluster.PredictRequest
	buf, ok := decode(w, r, &req)
	if !ok {
		return
	}
	putBuf(buf) // req holds copies
	if req.SQL == "" {
		httpError(w, http.StatusBadRequest, "sql is required")
		return
	}
	pred, err := s.calls.Predict(r.Context(), req.DB, req.Model, req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, pred)
}

// maxBatch bounds one batch request; bigger workloads should be paged.
const maxBatch = 4096

func (s *apiServer) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var req cluster.PredictBatchRequest
	buf, ok := decode(w, r, &req)
	if !ok {
		return
	}
	defer putBuf(buf) // after the reply: req.SQL borrows from buf
	if len(req.SQL) == 0 {
		httpError(w, http.StatusBadRequest, "sql array is required")
		return
	}
	if len(req.SQL) > maxBatch {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.SQL), maxBatch)
		return
	}
	res, err := s.calls.PredictBatch(r.Context(), req.DB, req.Model, req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, cluster.NewPredictBatchReply(res))
}

// handleWhatIf runs a what-if sweep; a router sends it to the replica
// owning the database, like a predict, so the owner's what-if caches
// stay hot.
func (s *apiServer) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req cluster.WhatIfRequest
	buf, ok := decode(w, r, &req)
	if !ok {
		return
	}
	putBuf(buf) // req holds copies
	if len(req.SQL) == 0 {
		httpError(w, http.StatusBadRequest, "sql array is required")
		return
	}
	if len(req.SQL) > maxBatch {
		httpError(w, http.StatusBadRequest, "workload of %d exceeds limit %d", len(req.SQL), maxBatch)
		return
	}
	rep, err := s.calls.WhatIf(r.Context(), req.DB, req.Model, whatif.Request{
		SQL:           req.SQL,
		Candidates:    req.Candidates,
		MaxCandidates: req.MaxCandidates,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, rep)
}

const adaptDisabled = "online adaptation is disabled (restart with -adapt)"

func (s *apiServer) handleFeedback(w http.ResponseWriter, r *http.Request) {
	// A lone session without -adapt answers before reading the body: the
	// endpoint is off whatever the body says, so even a malformed request
	// gets this 404 (pinned by the transcripts). A router learns it only
	// from the replica it asks, through the status table.
	if c, ok := s.calls.(sessionCalls); ok && c.loop == nil {
		httpErrorCode(w, http.StatusNotFound, cluster.CodeAdaptDisabled, adaptDisabled)
		return
	}
	var req cluster.FeedbackRequest
	buf, ok := decode(w, r, &req)
	if !ok {
		return
	}
	putBuf(buf) // req holds copies
	fp := req.Fingerprint
	if fp == "" && req.SQL != "" {
		fp = costmodel.Fingerprint(req.SQL)
	}
	if fp == "" {
		httpError(w, http.StatusBadRequest, "fingerprint or sql is required")
		return
	}
	if req.ActualRuntimeSec <= 0 {
		httpError(w, http.StatusBadRequest, "actual_runtime_sec must be positive")
		return
	}
	if err := s.calls.Feedback(r.Context(), req.DB, fp, req.ActualRuntimeSec); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"status": "accepted", "fingerprint": fp})
}

// sessionView is the GET side of one serving.Session.
type sessionView struct {
	sess *serving.Session
	loop *adapt.Loop // nil unless -adapt
}

func (v sessionView) register(get func(string, http.HandlerFunc), bc *bundleControl) {
	get("/healthz", v.healthz)
	get("/v1/models", v.models)
	get("/v1/databases", v.databases)
	get("/v1/stats", func(w http.ResponseWriter, r *http.Request) { v.stats(w, bc) })
	get("/v1/adapt/status", v.adaptStatus)
}

func (v sessionView) healthz(w http.ResponseWriter, r *http.Request) {
	models, databases := v.sess.Counts()
	writeJSON(w, map[string]any{
		"status":    "ok",
		"models":    models,
		"databases": databases,
	})
}

// modelInfo describes one loaded model in /v1/models. Fused reports
// whether the model's PredictBatch executes as one fused forward pass
// (costmodel.Fused). Generation and Swapped expose the hot-swap
// state (each AttachModel bumps the generation), so a client can detect
// a stale replica from this endpoint alone. All three are omitted by
// the router view, which only sees model names.
type modelInfo struct {
	Name       string    `json:"name"`
	Fused      bool      `json:"fused,omitempty"`
	Generation int64     `json:"generation,omitempty"`
	Swapped    time.Time `json:"swapped,omitzero"`
}

func (v sessionView) models(w http.ResponseWriter, r *http.Request) {
	models := make([]modelInfo, 0, 4)
	for _, name := range v.sess.Models() {
		info := modelInfo{Name: name}
		if est, err := v.sess.Model(name); err == nil {
			info.Fused = costmodel.Fused(est)
		}
		if gen, swapped, err := v.sess.ModelGeneration(name); err == nil {
			info.Generation = gen
			info.Swapped = swapped
		}
		models = append(models, info)
	}
	dbs := v.sess.Databases()
	names := make([]string, len(dbs))
	for i, d := range dbs {
		names[i] = d.Name
	}
	writeJSON(w, map[string]any{"models": models, "databases": names})
}

func (v sessionView) databases(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"databases": v.sess.Databases()})
}

// statsResponse is a session's /v1/stats body: the session snapshot
// (uptime, counters, latencies, per-model generations) plus the
// adaptation counters when -adapt is on and the bundle distributor
// counters (polls, activations, failures, last error) when -bundle-dir
// is set.
type statsResponse struct {
	serving.Stats
	Adaptation *adapt.Status            `json:"adaptation,omitempty"`
	Bundles    map[string]bundle.Status `json:"bundles,omitempty"`
}

func (v sessionView) stats(w http.ResponseWriter, bc *bundleControl) {
	resp := statsResponse{Stats: v.sess.Stats()}
	if v.loop != nil {
		st := v.loop.Status()
		resp.Adaptation = &st
	}
	if bc != nil {
		resp.Bundles = bc.statuses()
	}
	writeJSON(w, resp)
}

func (v sessionView) adaptStatus(w http.ResponseWriter, r *http.Request) {
	if v.loop == nil {
		httpError(w, http.StatusNotFound, adaptDisabled)
		return
	}
	writeJSON(w, v.loop.Status())
}

// routerView is the GET side of a cluster.Router: the read endpoints
// aggregate across replicas, and /v1/cluster is the one addition — the
// ring and per-replica health view an operator watches during an outage.
type routerView struct {
	router *cluster.Router
	loops  map[string]*adapt.Loop // by replica name; empty when -adapt is off or replicas are remote
}

func (v routerView) register(get func(string, http.HandlerFunc), bc *bundleControl) {
	get("/healthz", v.healthz)
	get("/v1/models", v.models)
	get("/v1/databases", v.databases)
	get("/v1/stats", func(w http.ResponseWriter, r *http.Request) { v.stats(w, r, bc) })
	get("/v1/cluster", v.cluster)
	get("/v1/adapt/status", v.adaptStatus)
}

func (v routerView) healthz(w http.ResponseWriter, r *http.Request) {
	health := v.router.Healthy()
	up := 0
	for _, ok := range health {
		if ok {
			up++
		}
	}
	body := map[string]any{
		"status":   "ok",
		"replicas": len(health),
		"healthy":  up,
	}
	status := http.StatusOK
	if up == 0 {
		status = http.StatusServiceUnavailable
		body["status"] = "unavailable"
	}
	writeStatus(w, status, body)
}

// models lists the union of the model and database names that the
// reachable replicas serve, sorted, from one Stats fan-out.
func (v routerView) models(w http.ResponseWriter, r *http.Request) {
	st, err := v.router.Stats(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	modelSet, dbSet := map[string]bool{}, map[string]bool{}
	for _, rs := range st.Replicas {
		if rs.Serving == nil {
			continue
		}
		for _, m := range rs.Serving.Models {
			modelSet[m.Name] = true
		}
		for _, d := range rs.Serving.Databases {
			dbSet[d.Database] = true
		}
	}
	models := []modelInfo{}
	for _, name := range sortedKeys(modelSet) {
		models = append(models, modelInfo{Name: name})
	}
	writeJSON(w, map[string]any{"models": models, "databases": sortedKeys(dbSet)})
}

// sortedKeys returns a set's members in ascending order, never nil.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (v routerView) databases(w http.ResponseWriter, r *http.Request) {
	dbs, err := v.router.Databases(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"databases": dbs})
}

func (v routerView) stats(w http.ResponseWriter, r *http.Request, bc *bundleControl) {
	st, err := v.router.Stats(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	if bc != nil {
		// Per-replica distributor counters ride along so generation skew
		// (one replica stuck behind on a revision) shows in one read.
		writeJSON(w, struct {
			cluster.ClusterStats
			Bundles map[string]bundle.Status `json:"bundles"`
		}{st, bc.statuses()})
		return
	}
	writeJSON(w, st)
}

func (v routerView) cluster(w http.ResponseWriter, r *http.Request) {
	view := cluster.RingView{
		Replicas: v.router.Replicas(),
		Healthy:  v.router.Healthy(),
		Owners:   map[string]string{},
		Routes:   map[string][]string{},
	}
	dbs, err := v.router.Databases(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	for _, d := range dbs {
		view.Owners[d.Name] = d.Owner
		view.Routes[d.Name] = v.router.Route(d.Name)
	}
	writeJSON(w, view)
}

// adaptStatus aggregates every replica's adaptation snapshot, keyed by
// replica name since each replica runs its own loop over its own
// windows.
func (v routerView) adaptStatus(w http.ResponseWriter, r *http.Request) {
	if len(v.loops) == 0 {
		httpErrorCode(w, http.StatusNotFound, cluster.CodeAdaptDisabled,
			"online adaptation is disabled (restart with -adapt; in route mode, query the serve nodes directly)")
		return
	}
	out := make(map[string]adapt.Status, len(v.loops))
	for name, loop := range v.loops {
		out[name] = loop.Status()
	}
	writeJSON(w, map[string]any{"replicas": out})
}
