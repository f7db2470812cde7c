package serving

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/par"
)

// scheduler coalesces concurrent single-prediction requests into
// adaptive micro-batches. Each estimator gets its own queue and drain
// goroutine running a backpressure-batching policy:
//
//   - greedily absorb every single already queued (requests that arrived
//     while the previous batch was inferring), up to maxBatch;
//   - if the queue runs dry with a solo request AND the previous flush
//     actually coalesced, linger up to maxWait for companions — recent
//     traffic suggests more are in flight;
//   - otherwise flush immediately: a lone request on a quiet queue pays
//     zero added latency.
//
// Batch size therefore follows the instantaneous load — that is the
// "adaptive" in adaptive micro-batching. Batches drain through
// Estimator.PredictBatch, so a wall of independent /v1/predict clients
// exercises the same batched-inference path as one explicit
// /v1/predict_batch call — for a fusing estimator (costmodel.Fused)
// every coalesced micro-batch is one fused forward pass.
type scheduler struct {
	maxBatch int
	maxWait  time.Duration

	// resolve maps a model name to its current estimator generation at
	// flush time (nil outside a Session, e.g. in direct scheduler tests;
	// the queue's creation-time estimator is the fallback). Resolving at
	// flush — not at enqueue or queue creation — is what makes hot-swaps
	// race-free: the generation that predicts is always the one the
	// session's model registry holds at that moment.
	resolve func(name string) costmodel.Estimator

	mu     sync.RWMutex
	queues map[string]*modelQueue
	closed bool
	wg     sync.WaitGroup

	batches    metrics.Counter
	items      metrics.Counter
	coalesced  metrics.HitCounter // hit: request shared its batch with others
	fallbacks  metrics.Counter    // fused batches that failed and re-predicted per request
	maxSeen    atomic.Int64
	batchSizes *metrics.Window // distribution of flushed batch sizes
}

// modelQueue is one model name's pending singles. Queues live for the
// scheduler's lifetime (one per name, ever): a hot-swap changes which
// estimator flush resolves, not the queue — no queue churn, no goroutine
// leak, and the replaced generation becomes collectable.
type modelQueue struct {
	name string
	est  atomic.Pointer[costmodel.Estimator] // creation-time fallback when resolve is nil
	ch   chan *schedRequest
}

type schedRequest struct {
	ctx  context.Context
	in   costmodel.PlanInput
	done chan schedResult
	// tr, when the request is sampled, receives the flush's batch
	// attribution (batch size, coalesce wait measured from enq). The
	// drain goroutine writes it strictly before sending on done, so the
	// requester's later reads are ordered by the channel receive.
	tr  *obs.Trace
	enq time.Time
}

type schedResult struct {
	v   float64
	err error
}

func newScheduler(maxBatch int, maxWait time.Duration) *scheduler {
	return &scheduler{
		maxBatch:   maxBatch,
		maxWait:    maxWait,
		queues:     map[string]*modelQueue{},
		batchSizes: metrics.NewWindow(0),
	}
}

// queue returns (creating on first use) the queue for the estimator's
// name. A stale estimator reference (resolved just before a hot-swap)
// still lands on its name's queue; the drain loop reads the queue's
// current generation at flush time.
func (s *scheduler) queue(est costmodel.Estimator) (*modelQueue, error) {
	name := est.Name()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	q, ok := s.queues[name]
	s.mu.RUnlock()
	if ok {
		return q, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if q, ok = s.queues[name]; ok {
		return q, nil
	}
	q = &modelQueue{name: name, ch: make(chan *schedRequest, 4*s.maxBatch)}
	q.est.Store(&est)
	s.queues[name] = q
	s.wg.Add(1)
	go s.drainLoop(q)
	return q, nil
}

// predictOne submits one input and blocks until its micro-batch drains
// (or ctx is done).
func (s *scheduler) predictOne(ctx context.Context, est costmodel.Estimator, in costmodel.PlanInput, tr *obs.Trace) (float64, error) {
	q, err := s.queue(est)
	if err != nil {
		return 0, err
	}
	r := &schedRequest{ctx: ctx, in: in, done: make(chan schedResult, 1)}
	if tr != nil {
		r.tr = tr
		r.enq = time.Now()
	}
	// Hold the read lock across the send: close() takes the write lock
	// before closing channels, so a send in flight can never hit a closed
	// channel.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, ErrClosed
	}
	select {
	case q.ch <- r:
		s.mu.RUnlock()
	case <-ctx.Done():
		s.mu.RUnlock()
		return 0, ctx.Err()
	}
	select {
	case res := <-r.done:
		return res.v, res.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// drainLoop owns one queue: collect a micro-batch under the adaptive
// policy, flush, repeat. It exits once the queue channel is closed and
// drained, so every accepted request is answered even during shutdown.
func (s *scheduler) drainLoop(q *modelQueue) {
	defer s.wg.Done()
	lastCoalesced := false
	for {
		first, ok := <-q.ch
		if !ok {
			return
		}
		batch := []*schedRequest{first}
		lingered := false
	collect:
		for len(batch) < s.maxBatch {
			select {
			case r, chOpen := <-q.ch:
				if !chOpen {
					s.flush(q, batch)
					return
				}
				batch = append(batch, r)
			default:
				// Queue dry. Flush now unless a solo request should
				// linger for companions (at most once per batch).
				if len(batch) > 1 || !lastCoalesced || lingered {
					break collect
				}
				lingered = true
				timer := time.NewTimer(s.maxWait)
				select {
				case r, chOpen := <-q.ch:
					timer.Stop()
					if !chOpen {
						s.flush(q, batch)
						return
					}
					batch = append(batch, r)
				case <-timer.C:
					break collect
				}
			}
		}
		lastCoalesced = len(batch) > 1
		s.flush(q, batch)
	}
}

// flush answers one micro-batch through the model name's current
// estimator generation. Requests whose caller already gave up are
// dropped before inference; the rest drain through PredictBatch. If the
// shared batch call fails (its first bad input aborts everything), the
// batch falls back to per-request Predict so each caller gets exactly
// its own error.
func (s *scheduler) flush(q *modelQueue, batch []*schedRequest) {
	est := *q.est.Load()
	if s.resolve != nil {
		if cur := s.resolve(q.name); cur != nil {
			est = cur
			// Keep the fallback pointing at the live generation so the
			// replaced model really is collectable.
			q.est.Store(&cur)
		}
	}
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.done <- schedResult{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	for _, r := range live {
		if r.tr != nil {
			r.tr.SetBatch(len(live), time.Since(r.enq))
		}
	}
	ins := make([]costmodel.PlanInput, len(live))
	for i, r := range live {
		ins[i] = r.in
	}
	// The batch outlives any single caller's deadline by design — its
	// members already passed their own ctx checks above.
	preds, err := est.PredictBatch(context.Background(), ins)
	if err != nil {
		// The fused pass aborted and every request re-predicts alone, so
		// nothing actually coalesced: count the fallback as its own
		// outcome instead of a successful batch — batches/coalesced/
		// batchSizes record only flushes that really drained fused.
		s.fallbacks.Inc()
		// Each request answers to its own ctx, so the fan-out itself is
		// never cancelled.
		par.Each(context.Background(), len(live), func(i int) error {
			r := live[i]
			v, perr := est.Predict(r.ctx, r.in)
			r.done <- schedResult{v: v, err: perr}
			return nil
		})
		return
	}
	s.batches.Inc()
	s.items.Add(int64(len(live)))
	s.batchSizes.Observe(float64(len(live)))
	if len(live) > 1 {
		s.coalesced.HitN(int64(len(live)))
	} else {
		s.coalesced.Miss()
	}
	for n := int64(len(live)); ; {
		cur := s.maxSeen.Load()
		if n <= cur || s.maxSeen.CompareAndSwap(cur, n) {
			break
		}
	}
	for i, r := range live {
		r.done <- schedResult{v: preds[i]}
	}
}

// SchedulerStats reports micro-batching behavior: how many batches
// drained fused, how many singles they carried, the share of singles
// that actually shared a batch, the largest batch observed, the recent
// batch-size distribution, and how many flushes fell back to per-
// request Predict after a failed fused pass — the observable shape of
// the coalescer feeding real fused batches into Estimator.PredictBatch.
// Fallback flushes appear ONLY in Fallbacks: their requests never
// shared an inference pass, so counting them as batches or coalesced
// hits would overstate the fused rate.
type SchedulerStats struct {
	Batches       int64                 `json:"batches"`
	Items         int64                 `json:"items"`
	MeanBatchSize float64               `json:"mean_batch_size"`
	MaxBatchSize  int64                 `json:"max_batch_size"`
	Coalesced     metrics.HitRate       `json:"coalesced"`
	Fallbacks     int64                 `json:"fallbacks"`
	BatchSizes    metrics.WindowSummary `json:"batch_sizes"`
}

func (s *scheduler) stats() SchedulerStats {
	st := SchedulerStats{
		Batches:      s.batches.Value(),
		Items:        s.items.Value(),
		MaxBatchSize: s.maxSeen.Load(),
		Coalesced:    s.coalesced.Snapshot(),
		Fallbacks:    s.fallbacks.Value(),
		BatchSizes:   s.batchSizes.Snapshot(),
	}
	if st.Batches > 0 {
		st.MeanBatchSize = float64(st.Items) / float64(st.Batches)
	}
	return st
}

// close stops accepting new singles, drains every queue, and waits for
// in-flight batches to answer.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, q := range s.queues {
		close(q.ch)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
