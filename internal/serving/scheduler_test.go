package serving

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// schedIn builds a synthetic input; the fake estimator only reads
// OptimizerCost, so no database is needed at the scheduler layer.
func schedIn(cost float64) costmodel.PlanInput {
	return costmodel.PlanInput{OptimizerCost: cost}
}

// only resolves every model name to est, as a Session with est attached
// does.
func only(est costmodel.Estimator) func(string) costmodel.Estimator {
	return func(string) costmodel.Estimator { return est }
}

// TestSchedulerCoalesces fires a burst of concurrent singles and checks
// they drain in fewer, larger micro-batches through PredictBatch. The
// burst is 16 singles beyond the GOMAXPROCS that may run inline, so it
// coalesces at any width.
func TestSchedulerCoalesces(t *testing.T) {
	est := &fakeEstimator{name: "fake", delay: 5 * time.Millisecond}
	s := newScheduler(32, 50*time.Millisecond, only(est))
	defer s.close()

	clients := 16 + runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v, err := s.predictOne(context.Background(), est, schedIn(float64(c)), nil)
			if err == nil && v <= 0 {
				err = errors.New("non-positive prediction")
			}
			if err != nil {
				errCh <- err
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := s.stats()
	if st.Items != int64(clients) {
		t.Fatalf("items = %d, want %d", st.Items, clients)
	}
	if st.Batches >= int64(clients) {
		t.Fatalf("no coalescing: %d batches for %d singles", st.Batches, clients)
	}
	if st.MaxBatchSize < 2 || st.Coalesced.Hits == 0 {
		t.Fatalf("scheduler stats show no shared batches: %+v", st)
	}
	if st.BatchSizes.Count != st.Batches || int64(st.BatchSizes.Max) != st.MaxBatchSize {
		t.Fatalf("batch-size distribution inconsistent with counters: %+v", st)
	}
	if st.BatchSizes.P95 < st.BatchSizes.P50 || st.BatchSizes.P50 < 1 {
		t.Fatalf("degenerate batch-size quantiles: %+v", st.BatchSizes)
	}
	if got := est.batchCalls.Load(); got != st.Batches {
		t.Fatalf("estimator saw %d batch calls, scheduler counted %d", got, st.Batches)
	}
}

// gate holds PredictBatch calls inside a fakeEstimator until released, so
// a test decides which passes are in flight while it submits the next.
type gate struct {
	entered  chan int      // the size of each batch now held
	release  chan struct{} // closed by open
	openOnce sync.Once
}

func newGate() *gate {
	// Room for every batch a test sends through a gate: entering must
	// never block on the test's own reads.
	return &gate{entered: make(chan int, 64), release: make(chan struct{})}
}

// open lets every held batch go, and later ones straight through. Tests
// also defer it, so a failed assertion cannot leave close waiting on a
// held pass.
func (g *gate) open() { g.openOnce.Do(func() { close(g.release) }) }

// gateHook is a fakeEstimator hook: a batch whose first input's cost
// names a gate is held there. Other batches pass at once.
func gateHook(gates map[float64]*gate) func([]costmodel.PlanInput) {
	return func(ins []costmodel.PlanInput) {
		if g := gates[ins[0].OptimizerCost]; g != nil {
			g.entered <- len(ins)
			<-g.release
		}
	}
}

// submit runs predictOne(cost) on its own goroutine; wg.Wait collects it.
func submit(t *testing.T, wg *sync.WaitGroup, s *scheduler, est costmodel.Estimator, cost float64) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.predictOne(context.Background(), est, schedIn(cost), nil); err != nil {
			t.Error(err)
		}
	}()
}

// held waits for the gate's next batch and checks its size.
func held(t *testing.T, g *gate, want int) {
	t.Helper()
	select {
	case n := <-g.entered:
		if n != want {
			t.Fatalf("gate holds a batch of %d, want %d", n, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no batch of %d reached the estimator", want)
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// testQueue returns the estimator's queue.
func testQueue(t *testing.T, s *scheduler, est costmodel.Estimator) *modelQueue {
	t.Helper()
	q, err := s.queue(est)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// occupy takes every inline slot of est's queue with a single held at g
// (cost names g in the estimator's gateHook), then parks one more held
// single on the drain goroutine: until g is released, every further
// single queues behind them. It returns how many singles it submitted.
func occupy(t *testing.T, wg *sync.WaitGroup, s *scheduler, est costmodel.Estimator, g *gate, cost float64) int {
	t.Helper()
	q := testQueue(t, s, est)
	w := runtime.GOMAXPROCS(0)
	for i := 0; i < w; i++ {
		submit(t, wg, s, est, cost)
	}
	for i := 0; i < w; i++ {
		held(t, g, 1)
	}
	if got := q.inline.Load(); got != int32(w) {
		t.Fatalf("%d inline passes in flight, want GOMAXPROCS = %d", got, w)
	}
	// No slot left: this one queues, and the idle drain goroutine takes
	// it at once as a solo flush.
	submit(t, wg, s, est, cost)
	held(t, g, 1)
	if got := q.inline.Load(); got != int32(w) {
		t.Fatalf("%d inline passes in flight after the queued single, want %d", got, w)
	}
	return w + 1
}

// TestSchedulerInlineWhileACoreIsFree pins the inline rule: with every
// pass held, exactly GOMAXPROCS singles run inline (each its own
// PredictBatch call of one), everything after them queues, and the
// backlog drains as one batch once the drain goroutine comes free. CI
// runs it at -cpu 1,2,4.
func TestSchedulerInlineWhileACoreIsFree(t *testing.T) {
	g := newGate()
	est := &fakeEstimator{name: "fake", hook: gateHook(map[float64]*gate{1: g})}
	s := newScheduler(32, time.Second, only(est))
	defer s.close()
	defer g.open()
	var wg sync.WaitGroup

	solo := occupy(t, &wg, s, est, g, 1)
	const k = 5
	for i := 0; i < k; i++ {
		submit(t, &wg, s, est, 1)
	}
	q := testQueue(t, s, est)
	waitFor(t, "the backlog to queue", func() bool { return len(q.ch) == k })
	if got := est.batchCalls.Load(); got != int64(solo) {
		t.Fatalf("estimator saw %d calls with the backlog still queued, want %d", got, solo)
	}

	g.open()
	wg.Wait()
	held(t, g, k)
	st := s.stats()
	if st.Batches != int64(solo+1) || st.Items != int64(solo+k) || st.MaxBatchSize != k {
		t.Fatalf("stats = %+v, want %d batches of one and one of %d", st, solo, k)
	}
	if st.Coalesced.Hits != k || st.Coalesced.Misses != int64(solo) {
		t.Fatalf("coalesce counters = %+v, want %d hits and %d misses", st.Coalesced, k, solo)
	}
	if got := q.inline.Load(); got != 0 {
		t.Fatalf("%d inline slots still taken after every single returned", got)
	}
}

// TestSchedulerMaxBatchCap checks a full batch drains immediately at the
// size cap instead of waiting out the deadline: a backlog of two caps
// drains as exactly two full batches.
func TestSchedulerMaxBatchCap(t *testing.T) {
	g := newGate()
	est := &fakeEstimator{name: "fake", hook: gateHook(map[float64]*gate{1: g})}
	const cap = 4
	s := newScheduler(cap, time.Second, only(est)) // deadline long enough to never fire
	defer s.close()
	defer g.open()
	var wg sync.WaitGroup

	solo := occupy(t, &wg, s, est, g, 1)
	for c := 0; c < 2*cap; c++ {
		submit(t, &wg, s, est, float64(10+c))
	}
	q := testQueue(t, s, est)
	waitFor(t, "the backlog to queue", func() bool { return len(q.ch) == 2*cap })
	start := time.Now()
	g.open()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("burst took %v — batches waited for the deadline instead of draining at the cap", elapsed)
	}
	st := s.stats()
	if st.MaxBatchSize != cap {
		t.Fatalf("largest batch = %d, want the cap %d: %+v", st.MaxBatchSize, cap, st)
	}
	if st.Batches != int64(solo+2) {
		t.Fatalf("%d batches, want %d solo and two full: %+v", st.Batches, solo, st)
	}
}

// waitLingering returns once a drain goroutine is lingering. The linger
// is drainLoop's only blocking select (the greedy absorb has a default
// arm, the idle receive is a plain channel receive), so a drainLoop
// goroutine in state "select" is exactly that.
func waitLingering(t *testing.T) {
	t.Helper()
	waitFor(t, "the drain goroutine to linger", func() bool {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
			t.Fatal(err)
		}
		for _, g := range strings.Split(buf.String(), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[select") && strings.Contains(g, "(*scheduler).drainLoop") {
				return true
			}
		}
		return false
	})
}

// TestLingerDoesNotFeedItself pins the linger rule: a solo request
// lingers only after a batch that coalesced from backlog. A batch that
// coalesced because its first request lingered proves nothing about the
// traffic, so the next solo request flushes at once — under the old
// rule (any batch of two re-arms the linger) two alternating clients
// made every request wait for the other.
func TestLingerDoesNotFeedItself(t *testing.T) {
	const maxWait = 2 * time.Second
	fill, hold := newGate(), newGate()
	est := &fakeEstimator{name: "fake"}
	s := newScheduler(8, maxWait, only(est))
	defer s.close()
	var wg sync.WaitGroup
	defer func() {
		hold.open()
		fill.open()
		wg.Wait()
	}()

	// Every inline slot and the drain goroutine held: what follows can
	// only queue. Then let the drain goroutine alone go — the fillers
	// keep the inline slots for the whole test, so every later single
	// takes the queue.
	est.hook = gateHook(map[float64]*gate{1: fill, 2: hold})
	w := runtime.GOMAXPROCS(0)
	q := testQueue(t, s, est)
	for i := 0; i < w; i++ {
		submit(t, &wg, s, est, 1)
	}
	for i := 0; i < w; i++ {
		held(t, fill, 1)
	}
	var queued sync.WaitGroup
	submit(t, &queued, s, est, 2)
	held(t, hold, 1)

	// A backlog batch of two: the rule's one reason to linger.
	submit(t, &queued, s, est, 10)
	submit(t, &queued, s, est, 11)
	waitFor(t, "two singles to queue", func() bool { return len(q.ch) == 2 })
	hold.open()
	queued.Wait()
	if st := s.stats(); st.Batches != 2 || st.MaxBatchSize != 2 {
		t.Fatalf("backlog did not drain as one batch of two: %+v", st)
	}

	// A solo request now lingers; a companion joins it.
	start := time.Now()
	submit(t, &queued, s, est, 12)
	waitLingering(t)
	submit(t, &queued, s, est, 13)
	queued.Wait()
	if st := s.stats(); st.Batches != 3 || st.Items != 5 {
		t.Fatalf("the lingering single was not joined by its companion: %+v", st)
	}
	if elapsed := time.Since(start); elapsed > maxWait/2 {
		t.Fatalf("lingering pair took %v: the companion should have released it", elapsed)
	}

	// That batch coalesced only because it lingered. The next solo
	// request must not linger on its account.
	start = time.Now()
	if _, err := s.predictOne(context.Background(), est, schedIn(14), nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > maxWait/4 {
		t.Fatalf("solo request after a lingered batch took %v (MaxWait %v): the linger fed itself", elapsed, maxWait)
	}
	if st := s.stats(); st.Batches != 4 || st.Items != 6 {
		t.Fatalf("stats after the last solo = %+v", st)
	}
}

// TestSchedulerPanickingEstimator checks an estimator panic on the
// inline path costs its own request and nothing else: the inline slot
// and the scheduler's read lock are released on the way out, so one
// panic more than there are slots still leaves the next single inline,
// Close returning and the stats readable.
func TestSchedulerPanickingEstimator(t *testing.T) {
	imdb, _ := fixtures(t)
	marked := imdb.sqls[1]
	var inlineStack []byte
	est := &fakeEstimator{name: "fake", hook: func(ins []costmodel.PlanInput) {
		if ins[0].Query.SQL() == marked {
			panic("estimator panic on a marked input")
		}
		inlineStack = make([]byte, 16<<10)
		inlineStack = inlineStack[:runtime.Stack(inlineStack, false)]
	}}
	sess := NewSession(Config{})
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(est)
	ctx := context.Background()
	for i := 0; i <= runtime.GOMAXPROCS(0); i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("marked input did not panic")
				}
			}()
			_, _ = sess.Predict(ctx, "imdb", "fake", marked)
		}()
	}
	if got := testQueue(t, sess.sched, est).inline.Load(); got != 0 {
		t.Fatalf("%d inline slots leaked by the panics", got)
	}
	if _, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(inlineStack, []byte("predictOne")) || bytes.Contains(inlineStack, []byte("drainLoop")) {
		t.Fatalf("the single after the panics did not run inline:\n%s", inlineStack)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		sess.Close()
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs after estimator panics: a read lock was never released")
	}
	if st := sess.Stats().Scheduler; st.Batches != 1 || st.Items != 1 || st.Fallbacks != 0 {
		t.Fatalf("scheduler stats after the panics = %+v, want the one healthy single", st)
	}
}

// TestSchedulerFallbackNotCountedAsCoalesced pins the fused-vs-fallback
// stats contract: a flush whose shared PredictBatch fails re-predicts
// per request, and that flush must surface in Fallbacks ONLY — not in
// batches, coalesced, or the batch-size distribution, which previously
// recorded it as a successful coalesce before the fused call even ran.
func TestSchedulerFallbackNotCountedAsCoalesced(t *testing.T) {
	poisonCost := 13.0
	est := &fakeEstimator{name: "fake", poison: func(in costmodel.PlanInput) error {
		if in.OptimizerCost == poisonCost {
			return errors.New("poisoned input")
		}
		return nil
	}}
	s := newScheduler(8, time.Millisecond, only(est))
	defer s.close()

	// A poisoned single: the fused pass fails, the fallback re-predicts
	// it alone, and the caller gets the per-request error.
	if _, err := s.predictOne(context.Background(), est, schedIn(poisonCost), nil); err == nil {
		t.Fatal("poisoned request did not surface its error")
	}
	st := s.stats()
	if st.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", st.Fallbacks)
	}
	if st.Batches != 0 || st.Items != 0 {
		t.Fatalf("failed fused flush counted as a batch: %+v", st)
	}
	if st.Coalesced.Hits != 0 || st.Coalesced.Misses != 0 {
		t.Fatalf("failed fused flush touched the coalesce counters: %+v", st.Coalesced)
	}
	if st.BatchSizes.Count != 0 {
		t.Fatalf("failed fused flush landed in the batch-size distribution: %+v", st.BatchSizes)
	}

	// A healthy single drains fused and counts as before.
	if _, err := s.predictOne(context.Background(), est, schedIn(1), nil); err != nil {
		t.Fatal(err)
	}
	st = s.stats()
	if st.Batches != 1 || st.Items != 1 || st.Fallbacks != 1 {
		t.Fatalf("healthy flush after fallback: %+v", st)
	}
	if st.BatchSizes.Count != 1 {
		t.Fatalf("healthy flush missing from batch-size distribution: %+v", st.BatchSizes)
	}
}

// TestSchedulerStatsAreOneSnapshot holds stats to one record per fact:
// while two goroutines submit singles back to back, every snapshot's
// batch count, item count, mean and max must agree with each other and
// with the batch-size distribution, as the doctor's batch-sizes row
// checks them. Counters kept beside the window and read one at a time
// tore under this traffic (items behind batches, a max below the mean).
func TestSchedulerStatsAreOneSnapshot(t *testing.T) {
	const snapshots = 20000
	est := &fakeEstimator{name: "fake"}
	s := newScheduler(8, time.Millisecond, only(est))
	defer s.close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.predictOne(context.Background(), est, schedIn(1), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	waitFor(t, "a first batch", func() bool { return est.batchCalls.Load() > 0 })
	first, torn := s.stats(), 0
	for i := 0; i < snapshots; i++ {
		st := s.stats()
		if st.BatchSizes.Count != st.Batches || st.Items < st.Batches ||
			st.MeanBatchSize > float64(st.MaxBatchSize) || st.BatchSizes.Max != float64(st.MaxBatchSize) {
			if torn == 0 {
				t.Errorf("torn snapshot: %+v", st)
			}
			torn++
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d snapshots torn", torn, snapshots)
	}
	if st := s.stats(); st.Batches == first.Batches {
		t.Fatal("no batch drained while the snapshots were taken")
	}
}

func TestSchedulerContextCancel(t *testing.T) {
	est := &fakeEstimator{name: "fake"}
	s := newScheduler(8, 10*time.Millisecond, only(est))
	defer s.close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.predictOne(ctx, est, schedIn(1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSchedulerCloseRejectsAndDrains(t *testing.T) {
	est := &fakeEstimator{name: "fake", delay: 2 * time.Millisecond}
	s := newScheduler(8, 5*time.Millisecond, only(est))

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.predictOne(context.Background(), est, schedIn(float64(i)), nil)
		}(i)
	}
	time.Sleep(time.Millisecond)
	s.close()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if _, err := s.predictOne(context.Background(), est, schedIn(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close = %v, want ErrClosed", err)
	}
	s.close() // idempotent
}
