package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// This file is the prediction API's wire vocabulary: the JSON bodies and
// the status↔error table, declared once for both ends of a hop. The
// serve and route commands decode the requests and encode the replies;
// HTTPBackend does the reverse. /v1/predict replies with a
// serving.Prediction and /v1/whatif with a whatif.Report, whose own
// JSON tags are the wire format.

// PredictRequest is the /v1/predict body. DB and Model may be omitted
// when the server hosts exactly one database / model.
type PredictRequest struct {
	DB    string `json:"db,omitempty"`
	Model string `json:"model,omitempty"`
	SQL   string `json:"sql"`
}

// PredictBatchRequest is the /v1/predict_batch body.
type PredictBatchRequest struct {
	DB    string   `json:"db,omitempty"`
	Model string   `json:"model,omitempty"`
	SQL   []string `json:"sql"`
}

// BatchItemResult is one statement's outcome: a prediction or that
// statement's own error. One malformed statement does not fail the
// whole batch.
type BatchItemResult struct {
	RuntimeSec float64 `json:"runtime_sec,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// PredictBatchReply is the /v1/predict_batch reply; Results align with
// the request's sql array.
type PredictBatchReply struct {
	DB      string            `json:"db"`
	Model   string            `json:"model"`
	Results []BatchItemResult `json:"results"`
	Count   int               `json:"count"`
	Errors  int               `json:"errors"`
}

// NewPredictBatchReply flattens a batch result onto the wire: per-item
// errors travel as strings.
func NewPredictBatchReply(res serving.BatchResult) PredictBatchReply {
	reply := PredictBatchReply{
		DB:      res.Database,
		Model:   res.Model,
		Results: make([]BatchItemResult, len(res.Items)),
		Count:   len(res.Items),
	}
	for i, item := range res.Items {
		if item.Err != nil {
			reply.Results[i].Error = item.Err.Error()
			reply.Errors++
		} else {
			reply.Results[i].RuntimeSec = item.RuntimeSec
		}
	}
	return reply
}

// Result is the inverse of NewPredictBatchReply. Per-item errors are
// rewrapped as ErrBadQuery (the only per-item class a session emits) so
// callers can still errors.Is them.
func (reply PredictBatchReply) Result() serving.BatchResult {
	res := serving.BatchResult{
		Database: reply.DB,
		Model:    reply.Model,
		Items:    make([]serving.BatchItem, len(reply.Results)),
	}
	for i, r := range reply.Results {
		if r.Error != "" {
			res.Items[i].Err = fmt.Errorf("%s: %w", r.Error, serving.ErrBadQuery)
		} else {
			res.Items[i].RuntimeSec = r.RuntimeSec
		}
	}
	return res
}

// WhatIfRequest is the /v1/whatif body: the workload to sweep and
// optional explicit index candidates ("table.column"); with none, the
// server enumerates candidates from the schema's foreign keys and the
// workload's filter columns.
type WhatIfRequest struct {
	DB            string   `json:"db,omitempty"`
	Model         string   `json:"model,omitempty"`
	SQL           []string `json:"sql"`
	Candidates    []string `json:"candidates,omitempty"`
	MaxCandidates int      `json:"max_candidates,omitempty"`
}

// FeedbackRequest is the /v1/feedback body: the observed runtime of an
// earlier prediction, identified by the fingerprint that prediction
// returned (or by the statement text, which fingerprints identically).
type FeedbackRequest struct {
	DB               string  `json:"db,omitempty"`
	Fingerprint      string  `json:"fingerprint"`
	SQL              string  `json:"sql,omitempty"`
	ActualRuntimeSec float64 `json:"actual_runtime_sec"`
}

// RingView is the /v1/cluster body: the ring assignment and health per
// replica. A router's shim writes it and the doctor reads it back.
type RingView struct {
	Replicas []string            `json:"replicas"`
	Healthy  map[string]bool     `json:"healthy"`
	Owners   map[string]string   `json:"owners"`
	Routes   map[string][]string `json:"routes"`
}

// CodeAdaptDisabled is the machine-readable code a node puts in its 404
// error envelope when feedback arrives but online adaptation is off.
// errorFor keys on the code, never on the human-readable message, to
// classify the condition as ErrNoFeedback — rewording the prose cannot
// silently change router behavior.
const CodeAdaptDisabled = "adapt_disabled"

// ErrorBody is the API's uniform JSON error envelope. Code is optional
// and machine-readable (see CodeAdaptDisabled). It is declared first so
// the envelope's keys go out in sorted order: the recorded transcripts
// pin the bytes.
type ErrorBody struct {
	Code  string `json:"code,omitempty"`
	Error string `json:"error"`
}

// StatusFor is the one error→status table: the HTTP status (and
// optional machine-readable code) a node answers err with. errorFor is
// its inverse; a class added to one belongs in the other.
func StatusFor(err error) (status int, code string) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, ErrNoFeedback):
		// Carry the code so a router stacked on this node classifies the
		// condition the same way.
		return http.StatusNotFound, CodeAdaptDisabled
	case isNotFoundClass(err):
		return http.StatusNotFound, ""
	case errors.Is(err, serving.ErrBadQuery):
		return http.StatusBadRequest, ""
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, ""
	case errors.Is(err, serving.ErrClosed), errors.Is(err, ErrNoReplica):
		return http.StatusServiceUnavailable, ""
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client gave up, not the server — keep it off the 5xx rate.
		return http.StatusRequestTimeout, ""
	default:
		return http.StatusInternalServerError, ""
	}
}

// errorFor rebuilds, on the calling side of a hop, the error class the
// remote node's StatusFor flattened into a status and code. name is the
// replica that answered and msg its error prose.
func errorFor(status int, code, name, msg string) error {
	switch status {
	case http.StatusNotFound:
		if code == CodeAdaptDisabled {
			return fmt.Errorf("%w: %s: %s", ErrNoFeedback, name, msg)
		}
		return fmt.Errorf("%s: %s: %w", name, msg, serving.ErrNotFound)
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		// The request is at fault, whichever replica reads it: failing
		// over would only mark every backend unhealthy in turn.
		return fmt.Errorf("%s: %s: %w", name, msg, serving.ErrBadQuery)
	case http.StatusRequestTimeout:
		return fmt.Errorf("%s: %s: %w", name, msg, context.DeadlineExceeded)
	default:
		// 5xx and everything unexpected: the replica is broken — this is
		// the failover class. 503 in particular is the remote draining.
		return fmt.Errorf("%w: %s: http %d: %s", ErrBackendDown, name, status, msg)
	}
}
