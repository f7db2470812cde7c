package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// TestStatusTableRoundTrip pins the status table in both directions at
// once: every error kind a node can answer with, flattened by StatusFor
// and rebuilt by errorFor on the far side of the hop, must land in the
// class the router steers by — and make the fail-over and not-found
// decisions the same error from an in-process replica makes.
func TestStatusTableRoundTrip(t *testing.T) {
	// Two rows take their error from a real in-process replica, so the
	// table pins what InProcess passes through, not a hand-written copy:
	// a feedback join miss, and a predict against a closed session.
	ctx := context.Background()
	rep := newReplica(t, "r0", true)
	joinMiss := rep.Feedback(ctx, "imdb", "no-such-fingerprint", 1)
	if joinMiss == nil {
		t.Fatal("feedback on an unknown fingerprint succeeded")
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	_, closedErr := rep.Predict(ctx, "imdb", "fake", "SELECT COUNT(*) FROM title")
	if closedErr == nil {
		t.Fatal("predict on a closed replica succeeded")
	}
	cases := []struct {
		name   string
		err    error
		status int
		code   string
		// class is what the rebuilt error must errors.Is.
		class error
		// down is whether the rebuilt error fails over.
		down bool
		// remoteOnly marks the rows where a hop deliberately changes the
		// verdict: whatever a node answers 5xx with, its caller can only
		// conclude that the node is broken.
		remoteOnly bool
	}{
		{name: "not found", err: fmt.Errorf("database %q: %w", "nope", serving.ErrNotFound),
			status: http.StatusNotFound, class: serving.ErrNotFound},
		{name: "bad query", err: fmt.Errorf("parse: %w", serving.ErrBadQuery),
			status: http.StatusBadRequest, class: serving.ErrBadQuery},
		{name: "feedback join miss", err: fmt.Errorf("%w: fingerprint", adapt.ErrNoPlan),
			status: http.StatusNotFound, class: serving.ErrNotFound},
		{name: "join miss as an in-process replica words it", err: joinMiss,
			status: http.StatusNotFound, class: serving.ErrNotFound},
		{name: "adaptation off", err: fmt.Errorf("%w: replica r0", ErrNoFeedback),
			status: http.StatusNotFound, code: CodeAdaptDisabled, class: ErrNoFeedback},
		{name: "oversized body", err: fmt.Errorf("bad request body: %w", &http.MaxBytesError{Limit: 16 << 20}),
			status: http.StatusRequestEntityTooLarge, class: serving.ErrBadQuery},
		{name: "caller canceled", err: context.Canceled,
			status: http.StatusRequestTimeout, class: context.DeadlineExceeded},
		{name: "caller deadline", err: fmt.Errorf("predict: %w", context.DeadlineExceeded),
			status: http.StatusRequestTimeout, class: context.DeadlineExceeded},
		{name: "closed session behind an in-process replica", err: closedErr,
			status: http.StatusServiceUnavailable, class: ErrBackendDown, down: true},
		{name: "session closed", err: serving.ErrClosed,
			status: http.StatusServiceUnavailable, class: ErrBackendDown, down: true},
		{name: "no replica left", err: fmt.Errorf("%w: 2 candidate(s) exhausted", ErrNoReplica),
			status: http.StatusServiceUnavailable, class: ErrBackendDown, down: true, remoteOnly: true},
		{name: "anything else", err: errors.New("disk on fire"),
			status: http.StatusInternalServerError, class: ErrBackendDown, down: true, remoteOnly: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := StatusFor(tc.err)
			if status != tc.status || code != tc.code {
				t.Fatalf("StatusFor = (%d, %q), want (%d, %q)", status, code, tc.status, tc.code)
			}
			rebuilt := errorFor(status, code, "r0", tc.err.Error())
			if !errors.Is(rebuilt, tc.class) {
				t.Fatalf("rebuilt error %q is not %q", rebuilt, tc.class)
			}
			if got := isDownClass(rebuilt); got != tc.down {
				t.Fatalf("isDownClass(rebuilt) = %v, want %v", got, tc.down)
			}
			if local := isDownClass(tc.err); !tc.remoteOnly && local != tc.down {
				t.Fatalf("in process the router decides fail-over=%v on %q, over HTTP %v", local, tc.err, tc.down)
			}
			if local, remote := isNotFoundClass(tc.err), isNotFoundClass(rebuilt); local != remote {
				t.Fatalf("in process the router decides not-found=%v on %q, over HTTP %v", local, tc.err, remote)
			}
		})
	}
}
