package serving

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
)

// scheduler answers single-prediction requests, on the goroutine that
// submitted them while a core is free and in adaptive micro-batches once
// none is. Each model name gets one queue with two ways through it:
//
//   - inline: a single that finds the queue empty and fewer than
//     GOMAXPROCS inline passes in flight on it runs its own batch of one,
//     through the same pass as any other batch, on the goroutine that
//     submitted it — no hand-off in either direction. The bound is the
//     core count because that is where batching starts to pay: below it
//     a pass of one has a core to itself and a queue could only add two
//     wake-ups; at it (every core inferring, or an estimator blocking)
//     further singles could only wait anyway, so they wait together.
//   - queued: any other single goes to the bounded channel its drain
//     goroutine owns, which runs a backpressure-batching policy:
//     greedily absorb every single already queued (requests that arrived
//     while the previous batch was inferring), up to maxBatch; if the
//     queue runs dry with a solo request AND the previous batch coalesced
//     from backlog, linger up to maxWait for companions — recent traffic
//     suggests more are in flight; otherwise flush immediately.
//
// Batch size therefore follows the instantaneous load — that is the
// "adaptive" in adaptive micro-batching. Every pass drains through
// Estimator.PredictBatch, so a wall of independent /v1/predict clients
// exercises the same batched-inference path as one explicit
// /v1/predict_batch call — for a fusing estimator (costmodel.Fused)
// every coalesced micro-batch is one fused forward pass. Passes run
// beside each other (inline ones, the drain loop's, explicit batches):
// PredictBatch is safe for concurrent use.
type scheduler struct {
	maxBatch int
	maxWait  time.Duration

	// resolve maps a model name to its current estimator generation at
	// pass time. Resolving at the pass — not at enqueue or queue creation
	// — is what makes hot-swaps race-free: the generation that predicts is
	// always the one the session's model registry holds at that moment.
	// Models are never detached, and a single reaches the scheduler only
	// after its name resolved, so resolve never answers nil here.
	resolve func(name string) costmodel.Estimator

	// mu guards queues and closed. A submitter holds it for reading
	// across its channel send or its whole inline pass, so close — which
	// takes it for writing — returns only after every accepted single has
	// been queued (the drain goroutines then answer it) or answered.
	mu     sync.RWMutex
	queues map[string]*modelQueue
	closed bool
	wg     sync.WaitGroup

	coalesced metrics.HitCounter // hit: request shared its batch with others
	fallbacks metrics.Counter    // fused batches that failed and re-predicted per request
	// batchSizes observes each pass that drained fused: its lifetime
	// count, sum and max are the batch, item and largest-batch counts.
	batchSizes *metrics.Window
}

// modelQueue is one model name's pending singles. Queues live for the
// scheduler's lifetime (one per name, ever): a hot-swap changes which
// estimator a pass resolves, not the queue — no queue churn, no goroutine
// leak, and the replaced generation becomes collectable.
type modelQueue struct {
	name string
	ch   chan single
	// inline counts the inline passes in flight on this queue.
	inline atomic.Int32
}

// single is one request as a pass sees it. tr, when the request is
// sampled, receives the pass's batch attribution (batch size, coalesce
// wait measured from enq). done is where a queued single's answer goes —
// the drain goroutine writes the trace strictly before sending on it, so
// the requester's later reads are ordered by the channel receive; an
// inline single has none, its answer is the pass's return.
type single struct {
	ctx  context.Context
	in   costmodel.PlanInput
	tr   *obs.Trace
	enq  time.Time
	done chan schedResult
}

type schedResult struct {
	v   float64
	err error
}

func newScheduler(maxBatch int, maxWait time.Duration, resolve func(name string) costmodel.Estimator) *scheduler {
	return &scheduler{
		maxBatch:   maxBatch,
		maxWait:    maxWait,
		resolve:    resolve,
		queues:     map[string]*modelQueue{},
		batchSizes: metrics.NewWindow(0),
	}
}

// queue returns (creating on first use) the queue for the estimator's
// name. A stale estimator reference (resolved just before a hot-swap)
// still lands on its name's queue; the pass reads the queue's current
// generation when it runs.
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
	// Four batches of backlog before a submitter blocks on the send.
	q = &modelQueue{name: name, ch: make(chan single, 4*s.maxBatch)}
	s.queues[name] = q
	s.wg.Add(1)
	go s.drainLoop(q)
	return q, nil
}

// predictOne answers one input: inline when the queue is empty and a
// core is free (see scheduler), otherwise by queueing it and blocking
// until its micro-batch drains or ctx is done.
//
// Cancellation keeps its error, not always its promptness. A queued
// single returns at its deadline. A context that expires while the
// caller's own inline pass is in flight is reported when the pass
// returns — the pass was never interruptible, the queued caller merely
// stopped waiting for it — and ctx.Err() wins over the answer.
func (s *scheduler) predictOne(ctx context.Context, est costmodel.Estimator, in costmodel.PlanInput, tr *obs.Trace) (float64, error) {
	q, err := s.queue(est)
	if err != nil {
		return 0, err
	}
	one := single{ctx: ctx, in: in, tr: tr}
	if tr != nil {
		one.enq = time.Now()
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, ErrClosed
	}
	if len(q.ch) == 0 {
		if q.inline.Add(1) <= int32(runtime.GOMAXPROCS(0)) {
			return s.runInline(q, one)
		}
		q.inline.Add(-1)
	}
	// Hold the read lock across the send: close() takes the write lock
	// before closing channels, so a send in flight can never hit a closed
	// channel.
	one.done = make(chan schedResult, 1)
	select {
	case q.ch <- one:
		s.mu.RUnlock()
	case <-ctx.Done():
		s.mu.RUnlock()
		return 0, ctx.Err()
	}
	select {
	case res := <-one.done:
		return res.v, res.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// runInline runs one's batch of one on the calling goroutine. The caller
// has taken the scheduler's read lock and an inline slot of q; both are
// released by defer, so an estimator that panics costs its own request
// and neither wedges close nor leaks the slot.
func (s *scheduler) runInline(q *modelQueue, one single) (float64, error) {
	defer s.mu.RUnlock()
	defer q.inline.Add(-1)
	reqs := [1]single{one}
	var out [1]schedResult
	s.pass(q, reqs[:], out[:])
	if err := one.ctx.Err(); err != nil {
		return 0, err
	}
	return out[0].v, out[0].err
}

// flush runs the collected batch's pass and hands every requester its
// answer; out is the drain loop's room for them.
func (s *scheduler) flush(q *modelQueue, batch []single, out []schedResult) {
	out = out[:len(batch)]
	s.pass(q, batch, out)
	for i := range batch {
		batch[i].done <- out[i]
	}
	// The buffers are reused: an idle queue must not pin its last
	// batch's plans, contexts and traces.
	clear(batch)
	clear(out)
}

// drainLoop owns one queue: collect a micro-batch under the adaptive
// policy, flush, repeat. It exits once the queue channel is closed and
// drained, so every accepted request is answered even during shutdown.
func (s *scheduler) drainLoop(q *modelQueue) {
	defer s.wg.Done()
	batch := make([]single, 0, s.maxBatch)
	out := make([]schedResult, s.maxBatch)
	lastCoalesced := false
	for {
		first, ok := <-q.ch
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		lingered := false
	collect:
		for len(batch) < s.maxBatch {
			select {
			case r, chOpen := <-q.ch:
				if !chOpen {
					s.flush(q, batch, out)
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
						s.flush(q, batch, out)
						return
					}
					batch = append(batch, r)
				case <-timer.C:
					break collect
				}
			}
		}
		// Only a batch that formed from backlog says more traffic is in
		// flight; one that formed because it lingered says only that the
		// linger worked, and must not justify the next.
		lastCoalesced = len(batch) > 1 && !lingered
		s.flush(q, batch, out)
	}
}

// pass answers one micro-batch — the drain loop's, or an inline
// submitter's batch of one — through the model name's current estimator
// generation, leaving request i's answer in out[i] (which arrives
// zeroed). Requests whose caller already gave up are dropped before
// inference; the rest drain through costmodel.PredictEach, so a batch
// whose first bad input aborts it re-predicts per request and each
// caller gets exactly its own error.
//
// reqs and out may live on the caller's stack: nothing here retains
// them.
func (s *scheduler) pass(q *modelQueue, reqs []single, out []schedResult) {
	est := s.resolve(q.name)
	ins := make([]costmodel.PlanInput, 0, len(reqs))
	for i := range reqs {
		if err := reqs[i].ctx.Err(); err != nil {
			out[i].err = err
			continue
		}
		ins = append(ins, reqs[i].in)
	}
	if len(ins) == 0 {
		return
	}
	// live reports whether request i made it into ins (in order).
	live := func(i int) bool { return out[i].err == nil }
	for i := range reqs {
		if live(i) && reqs[i].tr != nil {
			reqs[i].tr.SetBatch(len(ins), time.Since(reqs[i].enq))
		}
	}
	// The batch outlives any single caller's deadline by design — its
	// members already passed their own ctx checks above.
	preds, errs, isolated := costmodel.PredictEach(context.Background(), est, ins)
	j := 0
	for i := range reqs {
		if live(i) {
			out[i].v = preds[j]
			if errs != nil {
				out[i].err = errs[j]
			}
			j++
		}
	}
	if isolated {
		// The fused pass aborted and every request re-predicted alone, so
		// nothing actually coalesced: count the fallback as its own
		// outcome instead of a successful batch — coalesced and
		// batchSizes record only passes that really drained fused.
		s.fallbacks.Inc()
		return
	}
	s.batchSizes.Observe(float64(len(ins)))
	if len(ins) > 1 {
		s.coalesced.HitN(int64(len(ins)))
	} else {
		s.coalesced.Miss()
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

// stats reads every batch figure from one locked snapshot of
// batchSizes, so they agree however many passes finish during the read.
func (s *scheduler) stats() SchedulerStats {
	sizes, items := s.batchSizes.SnapshotSum()
	st := SchedulerStats{
		Batches:      sizes.Count,
		Items:        int64(items),
		MaxBatchSize: int64(sizes.Max),
		Coalesced:    s.coalesced.Snapshot(),
		Fallbacks:    s.fallbacks.Value(),
		BatchSizes:   sizes,
	}
	if st.Batches > 0 {
		st.MeanBatchSize = items / float64(st.Batches)
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
