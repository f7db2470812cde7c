package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// HTTPBackend is a Backend over a remote `zsdb serve` process: the
// router-side client of the same JSON API the serve command exposes.
// Transport failures and 5xx replies wrap ErrBackendDown (the remote is
// unreachable or broken — fail over); 4xx replies reconstruct the
// request-level serving error kind the remote's handler mapped onto the
// status code, so `errors.Is(err, serving.ErrBadQuery)` works the same
// against a remote replica as an in-process one.
type HTTPBackend struct {
	name   string
	base   string
	client *http.Client
}

// DefaultHTTPTimeout bounds one backend call when the caller's context
// carries no deadline of its own.
const DefaultHTTPTimeout = 10 * time.Second

// NewHTTPBackend returns a Backend calling the `zsdb serve` API at
// baseURL (e.g. "http://host:8080"; a bare "host:8080" gets the scheme
// prefixed). name defaults to the baseURL. client may be nil for a
// default with DefaultHTTPTimeout and a transport of the backend's own:
// a clone of http.DefaultTransport whose idle pool holds as many
// connections to the replica as one micro-batch holds singles
// (serving.DefaultMaxBatch). The shared default transport keeps two idle
// connections per host, so a third concurrent caller's connection was
// closed on return and re-dialled on its next call; and it is shared, so
// Close on one backend dropped every other backend's keep-alives.
func NewHTTPBackend(name, baseURL string, client *http.Client) (*HTTPBackend, error) {
	baseURL = strings.TrimRight(strings.TrimSpace(baseURL), "/")
	if baseURL == "" {
		return nil, fmt.Errorf("cluster: NewHTTPBackend needs a base URL")
	}
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	if name == "" {
		name = baseURL
	}
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = serving.DefaultMaxBatch
		client = &http.Client{Timeout: DefaultHTTPTimeout, Transport: tr}
	}
	return &HTTPBackend{name: name, base: baseURL, client: client}, nil
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.name }

// maxDrain bounds how much of a reply do reads past what it decoded. It
// covers the newline json.Encoder appends and the chunked terminator,
// with room for an error envelope longer than errorFor needed.
const maxDrain = 64 << 10

// do performs one JSON round trip. out may be nil for callers that only
// care about success.
func (b *HTTPBackend) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		// Connection refused, DNS failure, timeout: the replica is
		// unreachable. A caller-side cancellation stays a ctx error.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%w: %s: %v", ErrBackendDown, b.name, err)
	}
	// json.Decoder stops at the end of the value, and closing a body
	// before EOF makes net/http drop the keep-alive connection: without
	// the drain every reply too big for one read costs a new TCP dial.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		msg := resp.Status
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxDrain)).Decode(&eb); err == nil && eb.Error != "" {
			msg = eb.Error
		}
		return errorFor(resp.StatusCode, eb.Code, b.name, msg)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: %s: bad response body: %v", ErrBackendDown, b.name, err)
	}
	return nil
}

// Predict implements Backend. serving.Prediction's JSON tags are the
// wire format, so the reply decodes straight into it.
func (b *HTTPBackend) Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error) {
	var out serving.Prediction
	err := b.do(ctx, http.MethodPost, "/v1/predict", PredictRequest{DB: db, Model: model, SQL: sql}, &out)
	return out, err
}

// PredictBatch implements Backend.
func (b *HTTPBackend) PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error) {
	var reply PredictBatchReply
	if err := b.do(ctx, http.MethodPost, "/v1/predict_batch", PredictBatchRequest{DB: db, Model: model, SQL: sqls}, &reply); err != nil {
		return serving.BatchResult{}, err
	}
	return reply.Result(), nil
}

// WhatIf implements Backend. whatif.Report's JSON tags are the wire
// format, so the reply decodes straight into it.
func (b *HTTPBackend) WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error) {
	var out whatif.Report
	err := b.do(ctx, http.MethodPost, "/v1/whatif", WhatIfRequest{
		DB:            db,
		Model:         model,
		SQL:           req.SQL,
		Candidates:    req.Candidates,
		MaxCandidates: req.MaxCandidates,
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Feedback implements Backend. A remote without -adapt 404s with the
// CodeAdaptDisabled error code, which errorFor has already turned into
// ErrNoFeedback; a fingerprint join miss 404s plain and surfaces as
// serving.ErrNotFound, so the router walks the ring to the replica that
// retained the plan — the same failover the in-process backend
// performs.
func (b *HTTPBackend) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	return b.do(ctx, http.MethodPost, "/v1/feedback", FeedbackRequest{DB: db, Fingerprint: fingerprint, ActualRuntimeSec: actualSec}, nil)
}

// databasesReply mirrors /v1/databases.
type databasesReply struct {
	Databases []serving.DatabaseInfo `json:"databases"`
}

// Databases implements Backend.
func (b *HTTPBackend) Databases(ctx context.Context) ([]serving.DatabaseInfo, error) {
	var reply databasesReply
	if err := b.do(ctx, http.MethodGet, "/v1/databases", nil, &reply); err != nil {
		return nil, err
	}
	return reply.Databases, nil
}

// Stats implements Backend. The reply may carry extra fields (the
// adaptation block); decoding into serving.Stats ignores them.
func (b *HTTPBackend) Stats(ctx context.Context) (serving.Stats, error) {
	var out serving.Stats
	err := b.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Health implements Backend via GET /healthz.
func (b *HTTPBackend) Health(ctx context.Context) error {
	return b.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Close implements Backend: the remote process is not ours to stop —
// only this backend's idle connections are released (its default client
// has a transport of its own; a caller-supplied client's transport is
// the caller's to share or not).
func (b *HTTPBackend) Close() error {
	b.client.CloseIdleConnections()
	return nil
}
