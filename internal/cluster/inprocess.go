package cluster

import (
	"context"
	"fmt"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// InProcess adapts one serving.Session (and optionally its adapt.Loop)
// to the Backend interface with zero serialization — the replica kind
// behind `zsdb serve`, lone or with -replicas N, and the building block
// of the deterministic simulation harness. Predict, PredictBatch and
// WhatIf are the embedded session's own, and every error passes through
// as the session or loop wrote it: the Router reads a closed session as
// a down replica and a join miss as not-found itself (isDownClass,
// isNotFoundClass), so a lone server answers with the same bytes a
// replica would.
type InProcess struct {
	*serving.Session
	name string
	loop *adapt.Loop // nil when adaptation is disabled
}

// NewInProcess wraps sess as the replica named name. loop may be nil;
// Feedback then reports ErrNoFeedback.
func NewInProcess(name string, sess *serving.Session, loop *adapt.Loop) (*InProcess, error) {
	if name == "" || sess == nil {
		return nil, fmt.Errorf("cluster: NewInProcess needs a name and a session")
	}
	return &InProcess{Session: sess, name: name, loop: loop}, nil
}

// Name implements Backend.
func (b *InProcess) Name() string { return b.name }

// Loop exposes the wrapped adaptation loop (nil when disabled).
func (b *InProcess) Loop() *adapt.Loop { return b.loop }

// Feedback implements Backend: the observed runtime lands in this
// replica's adaptation loop, joining against this replica's plan cache.
// A join miss comes back as adapt.ErrNoPlan, which the Router treats as
// not-found and walks past: after an owner outage the successor that
// served the database's predictions — and retained their plans — is
// the replica that can still join this sample.
func (b *InProcess) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	if b.loop == nil {
		return fmt.Errorf("%w: replica %s", ErrNoFeedback, b.name)
	}
	return b.loop.Feedback(ctx, db, fingerprint, actualSec)
}

// Databases implements Backend.
func (b *InProcess) Databases(ctx context.Context) ([]serving.DatabaseInfo, error) {
	if b.Closed() {
		return nil, fmt.Errorf("%w: replica %s closed", ErrBackendDown, b.name)
	}
	return b.Session.Databases(), nil
}

// Stats implements Backend.
func (b *InProcess) Stats(ctx context.Context) (serving.Stats, error) {
	if b.Closed() {
		return serving.Stats{}, fmt.Errorf("%w: replica %s closed", ErrBackendDown, b.name)
	}
	return b.Session.Stats(), nil
}

// Health implements Backend: an in-process replica is healthy exactly
// while its session accepts requests.
func (b *InProcess) Health(ctx context.Context) error {
	if b.Closed() {
		return fmt.Errorf("%w: replica %s closed", ErrBackendDown, b.name)
	}
	return nil
}

// Close implements Backend: the adaptation loop stops first so no sweep
// races the session teardown.
func (b *InProcess) Close() error {
	if b.loop != nil {
		b.loop.Close()
	}
	return b.Session.Close()
}
