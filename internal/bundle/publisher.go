package bundle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
)

// DefaultRetain is how many revisions a Publisher keeps when the caller
// does not say, and the one depth every zsdb writer (serve, bundle push,
// bundle rollback) prunes a store to — enough history to roll back past
// a bad run of adaptations without the store growing unboundedly.
const DefaultRetain = 5

// Publisher assigns revisions and writes bundles to a store, pruning to
// a retained history. Publish serializes internally; a second Publisher
// on the same store (in this process or another) costs the loser of
// each revision race a retry, not its publish. Distributors are
// read-only peers.
type Publisher struct {
	store  Store
	retain int
	events *obs.Log // nil disables; all uses are nil-safe

	mu sync.Mutex
}

// NewPublisher wraps a store. retain <= 0 selects DefaultRetain.
func NewPublisher(store Store, retain int) *Publisher {
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Publisher{store: store, retain: retain}
}

// WithEvents attaches a control-plane event log: every publish and
// rollback records one event. Returns p for chaining.
func (p *Publisher) WithEvents(l *obs.Log) *Publisher {
	p.events = l
	return p
}

// Retain reports the configured history depth.
func (p *Publisher) Retain() int { return p.retain }

// nextRevision peeks the store head and returns head+1 (1 when empty).
func (p *Publisher) nextRevision(ctx context.Context) (int64, error) {
	head, err := p.store.Latest(ctx)
	switch {
	case err == nil:
		return head + 1, nil
	case errors.Is(err, ErrNotFound):
		return 1, nil
	default:
		return 0, err
	}
}

// publishAttempts bounds how many revisions one put tries when other
// writers to the same store keep taking the one it built for.
const publishAttempts = 8

// put stores the bundle build writes for the store's next revision and
// prunes history beyond the retain depth. When another writer stores
// that revision first (ErrExists), it rebuilds at the new head + 1, up
// to publishAttempts times, so neither a publish nor a rollback is lost
// to the race.
func (p *Publisher) put(ctx context.Context, build func(w io.Writer, rev int64) (Manifest, error)) (Manifest, error) {
	var buf bytes.Buffer
	for attempt := 1; ; attempt++ {
		rev, err := p.nextRevision(ctx)
		if err != nil {
			return Manifest{}, fmt.Errorf("bundle: next revision: %w", err)
		}
		buf.Reset()
		man, err := build(&buf, rev)
		if err != nil {
			return Manifest{}, err
		}
		err = p.store.Put(ctx, rev, buf.Bytes())
		if err == nil {
			p.prune(ctx)
			return man, nil
		}
		if !errors.Is(err, ErrExists) || attempt == publishAttempts {
			return Manifest{}, err
		}
	}
}

// Publish builds est into the next revision and stores it (see put).
func (p *Publisher) Publish(ctx context.Context, est costmodel.Estimator, meta Meta) (Manifest, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	man, err := p.put(ctx, func(w io.Writer, rev int64) (Manifest, error) {
		return Build(w, est, rev, meta)
	})
	if err != nil {
		return Manifest{}, err
	}
	p.events.Record(obs.EventBundlePublished, "publisher", map[string]string{
		"revision":  strconv.FormatInt(man.Revision, 10),
		"estimator": man.Estimator,
	})
	return man, nil
}

// Rollback re-publishes a retained revision's payload as a NEW head
// revision, so every polling distributor converges onto the restored
// model through the normal download path — a durable, fleet-wide undo
// rather than a local override the next poll would revert. revision 0
// means "the one before the current head". The target must still be
// retained and must verify. It is read once; a writer that takes the
// next revision first costs a retry at the new head, as in Publish, and
// the manifest names the head the rollback actually follows.
func (p *Publisher) Rollback(ctx context.Context, revision int64) (Manifest, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	revs, err := p.store.Revisions(ctx)
	if err != nil {
		return Manifest{}, err
	}
	if len(revs) == 0 {
		return Manifest{}, fmt.Errorf("bundle: rollback: %w: store is empty", ErrNotFound)
	}
	head := revs[len(revs)-1]
	if revision == 0 {
		if len(revs) < 2 {
			return Manifest{}, fmt.Errorf("bundle: rollback: no revision before head %d is retained", head)
		}
		revision = revs[len(revs)-2]
	}
	if revision >= head {
		return Manifest{}, fmt.Errorf("bundle: rollback target %d is not before head %d", revision, head)
	}

	rc, err := p.store.Fetch(ctx, revision)
	if err != nil {
		return Manifest{}, err
	}
	target, payload, err := readArchive(rc)
	rc.Close()
	if err != nil {
		return Manifest{}, fmt.Errorf("rollback target %d: %w", revision, err)
	}

	man, err := p.put(ctx, func(w io.Writer, rev int64) (Manifest, error) {
		man := target
		man.RollbackOf, man.RolledBackFrom, man.Revision = revision, rev-1, rev
		return man, Rewrap(w, man, payload)
	})
	if err != nil {
		return Manifest{}, err
	}
	p.events.Record(obs.EventBundleRollback, "publisher", map[string]string{
		"revision":    strconv.FormatInt(man.Revision, 10),
		"rollback_of": strconv.FormatInt(man.RollbackOf, 10),
		"from":        strconv.FormatInt(man.RolledBackFrom, 10),
		"estimator":   man.Estimator,
	})
	return man, nil
}

// prune drops revisions beyond the retain depth, oldest first. Pruning
// is best-effort: a failed delete never fails the publish that
// triggered it.
func (p *Publisher) prune(ctx context.Context) {
	revs, err := p.store.Revisions(ctx)
	if err != nil || len(revs) <= p.retain {
		return
	}
	for _, rev := range revs[:len(revs)-p.retain] {
		_ = p.store.Delete(ctx, rev)
	}
}
