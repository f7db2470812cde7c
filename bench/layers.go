package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/nn"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// Sizes of the layer pass: how much of each workload's stream is replayed
// through the public functions. Small enough for the traced run to fit the
// time of a timed one, large enough for means to settle.
const (
	coldReplay    = 1500
	hotReplay     = 2000
	batchReplay   = 16
	sweepReplay   = 6
	fewshotReplay = 3
	// replayCache is the decomposed pipeline's plan-cache capacity: below
	// coldReplay, so Put evicts in steady state as it does under
	// cold-singles.
	replayCache = 1024
)

// runTraced is a traced run: (b) the workload's own topology driven at one
// connection without and then with server-side tracing, for the counters
// only the server has and for the cost of tracing itself; (a) an
// in-process, single-goroutine layer pass that replays the head of every
// workload's stream for this seed through the layers' public functions,
// each call in a harness-side span.
func runTraced(e *env, cfg runCfg, d *detail, ph *phases) (map[string]float64, error) {
	v := map[string]float64{
		"bench.build_s":            e.buildS,
		"bench.loadavg_start":      e.host.LoadAvg1,
		"bench.foreign_zsdb_procs": float64(e.host.ForeignZsdb),
	}
	rec := newRecorder()
	pass := time.Duration(cfg.seconds / 4 * float64(time.Second))
	var err error
	if cfg.workload == "fewshot-cycle" {
		err = tracedFewshot(e, cfg, pass, rec, v, d, ph)
	} else {
		if err = tracedHTTP(e, cfg, pass, v, d, ph); err == nil {
			err = layerFewshot(e, cfg.seed, rec, fewshotReplay, 0, v, ph)
		}
	}
	if err != nil {
		return nil, err
	}
	for _, section := range []func(*env, int64, *recorder, map[string]float64) error{
		layerSingles, layerBatch, layerWhatIf, layerSetup,
	} {
		if err := section(e, cfg.seed, rec, v); err != nil {
			return nil, err
		}
	}
	layerPrimitives(v)
	d.Extra = map[string]float64{"spans": float64(len(rec.spans))}
	return v, writeSpans(filepath.Join(e.outDir, "trace-"+cfg.workload+".json"), rec.spans)
}

// onePass drives a freshly booted topology at one connection and returns
// what was measured plus the topology, still up.
func onePass(e *env, w *httpWorkload, traceSample int, warmup, pass time.Duration, ph *phases) (*topology, measured, error) {
	t, warm, err := w.boot(e, traceSample)
	if err != nil {
		return nil, measured{}, err
	}
	ph.add("prewarm", warm)
	m, err := measureHTTP(t, w.stream, 1, warmup, pass)
	if err != nil {
		t.stop()
		return nil, measured{}, err
	}
	ph.add("load", m.ph)
	return t, m, nil
}

// tracedHTTP measures the workload at one connection untraced, then with
// `-trace-sample 1`, and harvests /v1/stats and /v1/debug/traces.
func tracedHTTP(e *env, cfg runCfg, pass time.Duration, v map[string]float64, d *detail, ph *phases) error {
	w, err := newHTTPWorkload(e, cfg.workload, cfg.seed, 0)
	if err != nil {
		return err
	}
	ref, err := newReference(e, strings.Split(w.databases, ","))
	if err != nil {
		return err
	}
	defer ref.Close()
	warmup := cfg.warmup() / 2

	t, plain, err := onePass(e, w, 0, warmup, pass, ph)
	if err != nil {
		return err
	}
	defer t.stop()
	var boots []float64
	for _, c := range t.serves {
		boots = append(boots, float64(c.boot)/float64(time.Millisecond))
	}
	var agg serving.Stats
	for _, c := range t.serves {
		st, err := fetchStats(c)
		if err != nil {
			return err
		}
		mergeStats(&agg, st)
	}
	t.stop()
	ph.add("verify", checkKept(ref, plain.kept))

	t2, traced, err := onePass(e, w, 1, warmup, pass, ph)
	if err != nil {
		return err
	}
	defer t2.stop()
	var waits []float64
	for _, c := range t2.serves {
		snap, err := fetchTraces(c)
		if err != nil {
			return err
		}
		for _, tr := range snap.Recent {
			if tr.BatchSize > 0 {
				waits = append(waits, float64(tr.CoalesceUs))
			}
		}
	}
	t2.stop()
	ph.add("verify", checkKept(ref, traced.kept))

	// The same operations in process: what is left of the HTTP p50 after
	// subtracting them is the shim (and, routed, the hop).
	w2, err := newHTTPWorkload(e, cfg.workload, cfg.seed, 0)
	if err != nil {
		return err
	}
	for _, r := range w2.prewarm {
		if _, err := r.local(ref); err != nil {
			return err
		}
	}
	n := 512
	if w2.accuracy[0].kind != opPredict {
		n = 24 // a batch or a sweep is hundreds of items already
	}
	local := make([]float64, n)
	for i := range local {
		start := time.Now()
		if _, err := w2.stream.next().local(ref); err != nil {
			return err
		}
		local[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}

	p50, p50Traced := median(plain.win.p50Ms), median(traced.win.p50Ms)
	noiseAccounting(plain, v)
	v["bench.trace_overhead_pct"] = 100 * (p50Traced/p50 - 1)
	v["cmd-zsdb.boot_ms"] = mean(boots)
	v["cmd-zsdb.resp_bytes_per_item"] = float64(plain.respBytes) / float64(max(plain.items, 1))
	v["cmd-zsdb.http_overhead_us"] = p50*1e3 - median(local)
	v["serving.sched_coalesce_wait_us"] = mean(waits)
	serverCounters(agg, v)
	d.StreamSHA256 = w.stream.digest()
	return nil
}

// tracedFewshot is the few-shot workload's traced run: cycles without
// spans, then cycles with them; the in-process sessions stand in for the
// server, so the HTTP-only figures are zero.
func tracedFewshot(e *env, cfg runCfg, pass time.Duration, rec *recorder, v map[string]float64, d *detail, ph *phases) error {
	f, err := newFewshot(e)
	if err != nil {
		return err
	}
	s, next := fewshotStream(f.pool, cfg.seed)
	plain, _, err := measureFewshot(f, next, 0, pass)
	st := f.a.Stats()
	f.close()
	if err != nil {
		return err
	}
	ph.add("load", plain.ph)
	d.StreamSHA256 = s.digest()

	if err := layerFewshot(e, cfg.seed, rec, 0, pass, v, ph); err != nil {
		return err
	}
	p50 := percentile(plain.win.pooledMs, 0.5)
	noiseAccounting(plain, v)
	v["bench.trace_overhead_pct"] = 100 * (v["adapt.cycle_ms"]/p50 - 1)
	for _, name := range []string{"cmd-zsdb.boot_ms", "cmd-zsdb.resp_bytes_per_item", "cmd-zsdb.http_overhead_us",
		"serving.sched_coalesce_wait_us"} {
		v[name] = 0
	}
	serverCounters(st, v)
	return nil
}

// noiseAccounting reports the tail and the context of a traced run's
// untraced pass. The tail latencies live here, not among the end-to-end
// metrics, because between identical runs on a shared two-core VM they
// moved by more than any bound the contract allows.
func noiseAccounting(plain measured, v map[string]float64) {
	v["bench.lat_p95_ms"] = plain.win.tail()
	v["bench.lat_p99_ms"] = percentile(plain.win.pooledMs, 0.99)
	v["bench.lat_max_ms"] = plain.win.pooledMs[len(plain.win.pooledMs)-1]
	v["bench.window_spread"] = spread(plain.win.p50Ms)
	v["bench.client_cpu_share"] = plain.clientShare
	v["bench.steal_pct"] = plain.stealPct
}

// mergeStats adds one serve child's counters into agg.
func mergeStats(agg *serving.Stats, st serving.Stats) {
	agg.Databases = append(agg.Databases, st.Databases...)
	a, b := &agg.Scheduler, st.Scheduler
	a.Batches += b.Batches
	a.Items += b.Items
	a.Fallbacks += b.Fallbacks
	a.Coalesced.Hits += b.Coalesced.Hits
	a.Coalesced.Misses += b.Coalesced.Misses
	// Predict means combine weighted by their counts.
	if n := agg.Predict.Count + st.Predict.Count; n > 0 {
		agg.Predict.MeanMs = (agg.Predict.MeanMs*float64(agg.Predict.Count) + st.Predict.MeanMs*float64(st.Predict.Count)) / float64(n)
		agg.Predict.Count = n
	}
}

// serverCounters reports what only the server's own /v1/stats knows.
func serverCounters(st serving.Stats, v map[string]float64) {
	var hits, misses, evictions int64
	for _, db := range st.Databases {
		hits += db.PlanCache.Hits
		misses += db.PlanCache.Misses
		evictions += db.PlanCache.Evictions
	}
	v["costmodel.plancache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["costmodel.plancache_evictions"] = float64(evictions)
	v["serving.sched_mean_batch_size"] = ratio(float64(st.Scheduler.Items), float64(st.Scheduler.Batches))
	v["serving.sched_coalesced_ratio"] = ratio(float64(st.Scheduler.Coalesced.Hits), float64(st.Scheduler.Coalesced.Hits+st.Scheduler.Coalesced.Misses))
	v["serving.sched_fallbacks"] = float64(st.Scheduler.Fallbacks)
	v["serving.stage_predict_mean_us"] = st.Predict.MeanMs * 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fetchTraces reads one serve child's sampled-trace ring.
func fetchTraces(c *child) (obs.TraceSnapshot, error) {
	var snap obs.TraceSnapshot
	resp, err := newClient().Get("http://" + c.addr + "/v1/debug/traces")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/v1/debug/traces: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// pipeline is the serving path taken apart: the same public functions
// serving.Session calls between a statement and its prediction, in the same
// order, each in its own span.
type pipeline struct {
	db    *storage.Database
	opt   *optimizer.Optimizer
	cache *costmodel.PlanCache
	est   costmodel.Estimator
	warm  costmodel.EncodeWarmer
}

func newPipeline(e *env, db *storage.Database, capacity int) (*pipeline, error) {
	est, err := loadModel(e.model)
	if err != nil {
		return nil, err
	}
	warm, ok := est.(costmodel.EncodeWarmer)
	if !ok {
		return nil, fmt.Errorf("%s does not expose its encoder (costmodel.EncodeWarmer)", est.Name())
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	return &pipeline{
		db:    db,
		opt:   optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams()),
		cache: costmodel.NewPlanCache(capacity),
		est:   est,
		warm:  warm,
	}, nil
}

// prepare is parse -> optimize -> featurize behind the plan cache; hit
// reports that the cache answered.
func (p *pipeline) prepare(rec *recorder, req int, sql string) (in costmodel.PlanInput, hit bool, err error) {
	var fp string
	rec.call("fingerprint", req, func() { fp = costmodel.Fingerprint(sql) })
	rec.call("plancache_get", req, func() { in, hit = p.cache.Get(fp) })
	if hit {
		return in, true, nil
	}
	var q *query.Query
	rec.call(serving.StageParse, req, func() { q, err = sqlparse.Parse(sql, p.db.Schema) })
	if err != nil {
		return in, false, err
	}
	rec.call(serving.StageOptimize, req, func() { in.Plan, err = p.opt.Plan(q) })
	if err != nil {
		return in, false, err
	}
	rec.call(serving.StageFeaturize, req, func() {
		in.DB, in.Query = p.db, q
		in.OptimizerCost = optimizer.TotalCost(in.Plan)
		in.Enc = costmodel.NewEncodedPlan()
	})
	rec.call("plancache_put", req, func() { p.cache.Put(fp, in) })
	return in, false, nil
}

// predict is one single prediction as an untraced server makes it: the
// scheduler hands the estimator a batch of one, which encodes the plan
// itself when no memo holds its graph. Graph encoding is then timed on its
// own, outside the request: a full encode for a plan the cache missed, the
// memo lookup for one it held.
func (p *pipeline) predict(rec *recorder, req int, sql string) error {
	var in costmodel.PlanInput
	var hit bool
	var err error
	rec.call("request", req, func() {
		if in, hit, err = p.prepare(rec, req, sql); err == nil {
			rec.call(serving.StagePredict, req, func() { _, err = p.est.PredictBatch(context.Background(), []costmodel.PlanInput{in}) })
		}
	})
	if err != nil {
		return err
	}
	if !hit {
		in.Enc = costmodel.NewEncodedPlan()
	}
	rec.call(serving.StageEncode, req, func() { err = p.warm.WarmEncode(in) })
	return err
}

// replayFn replays one statement one way, under request id i.
type replayFn func(rec *recorder, i int, sql string) error

// alternate replays the statements each way in turn, a block at a time:
// close enough in time that every way sees the same moments of a noisy
// machine, far enough apart that they do not disturb each other (per
// statement, the model's weights would bounce between the caller's core
// and the scheduler goroutine's).
func alternate(rec *recorder, firstReq int, sqls []string, ways ...replayFn) error {
	const block = 50
	for lo := 0; lo < len(sqls); lo += block {
		for _, way := range ways {
			for i := lo; i < min(lo+block, len(sqls)); i++ {
				if err := way(rec, firstReq+i, sqls[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// section is the spans one part of the layer pass recorded.
type section struct {
	rec    *recorder
	lo, hi int
	self   []int64
}

func (r *recorder) section(lo int) section {
	return section{rec: r, lo: lo, hi: len(r.spans), self: selfTimes(r.spans)}
}

// us is the trimmed mean self time, in microseconds, of the section's
// spans with the given name.
func (s section) us(name string) float64 {
	var xs []float64
	for i := s.lo; i < s.hi; i++ {
		if s.rec.spans[i].Name == name {
			xs = append(xs, float64(s.self[i])/1e3)
		}
	}
	return trimmedMean(xs)
}

// durationsUs lists the durations (children included) of the named spans.
func (s section) durationsUs(name string) []float64 {
	var xs []float64
	for _, sp := range s.rec.spans[s.lo:s.hi] {
		if sp.Name == name {
			xs = append(xs, float64(sp.EndNs-sp.StartNs)/1e3)
		}
	}
	return xs
}

// totalUs is the trimmed mean duration of the named spans.
func (s section) totalUs(name string) float64 { return trimmedMean(s.durationsUs(name)) }

// layerSingles replays the heads of the cold-singles and hot-singles
// streams taken apart through the pipeline and whole through
// Session.Predict, then the hot head through a Router over an in-process
// backend and through an HTTPBackend against a live child. What Session.Predict
// costs beyond its replayed children is the serving layer's own time; what
// the Router and the HTTPBackend add is the routing layer's.
func layerSingles(e *env, seed int64, rec *recorder, v map[string]float64) error {
	ctx := context.Background()
	imdb := e.dbs["imdb"]
	fresh := newDistinct(imdb, seed*3) // the imdb third of the cold-singles stream
	cold := make([]string, coldReplay)
	for i := range cold {
		cold[i] = fresh.take()
	}
	hotPool := pool(imdb, hotPoolSize, hotPoolSeed)
	draw := zipf(rand.New(rand.NewSource(seed)), len(hotPool))
	hot := make([]string, hotReplay)
	for i := range hot {
		hot[i] = hotPool[draw()]
	}
	layers := []string{"fingerprint", "plancache_get", serving.StageParse, serving.StageOptimize,
		serving.StageFeaturize, "plancache_put", serving.StagePredict}
	sum := func(sec section) float64 {
		total := 0.0
		for _, name := range layers {
			total += sec.us(name)
		}
		return total
	}

	// Cold: pipeline and Session each start empty, with the same plan-cache
	// capacity (below coldReplay, so Put evicts as under cold-singles).
	p, err := newPipeline(e, imdb, replayCache)
	if err != nil {
		return err
	}
	sess, err := newSession(e, []string{"imdb"}, serving.Config{PlanCacheSize: replayCache})
	if err != nil {
		return err
	}
	session := func(rec *recorder, i int, sql string) (err error) {
		rec.call("session_predict", i, func() { _, err = sess.Predict(ctx, "imdb", "", sql) })
		return err
	}
	lo := len(rec.spans)
	err = alternate(rec, 0, cold, p.predict, session)
	sess.Close()
	if err != nil {
		return err
	}
	sec := rec.section(lo)
	coldSum := sum(sec)
	v["sqlparse.parse_us"] = sec.us(serving.StageParse)
	v["optimizer.plan_us"] = sec.us(serving.StageOptimize)
	v["encoding.encode_us"] = sec.us(serving.StageEncode)
	v["costmodel.plancache_put_us"] = sec.us("plancache_put")
	v["costmodel.predict1_cold_us"] = sec.us(serving.StagePredict)
	v["serving.predict_cold_us"] = sec.totalUs("session_predict")
	v["serving.self_cold_us"] = v["serving.predict_cold_us"] - coldSum

	// Hot: everything holds the pool before the replay starts.
	if p, err = newPipeline(e, imdb, costmodel.DefaultPlanCacheSize); err != nil {
		return err
	}
	if sess, err = newReference(e, []string{"imdb"}); err != nil {
		return err
	}
	defer sess.Close()
	routed, err := newReference(e, []string{"imdb"})
	if err != nil {
		return err
	}
	router := cluster.NewRouter(cluster.Config{})
	defer router.Close() // closes the backend and, with it, routed
	backend, err := cluster.NewInProcess("r0", routed, nil)
	if err != nil {
		routed.Close()
		return err
	}
	if err := router.Register(backend); err != nil {
		routed.Close()
		return err
	}
	c, err := startChild(e.zsdb, "serve", "-models", e.model, "-databases", "imdb", "-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer c.stop()
	remote, err := cluster.NewHTTPBackend("b0", "http://"+c.addr, nil)
	if err != nil {
		return err
	}
	replays := []replayFn{
		p.predict,
		session,
		func(rec *recorder, i int, sql string) (err error) {
			rec.call("router_predict", i, func() { _, err = router.Predict(ctx, "imdb", "", sql) })
			return err
		},
	}
	viaHTTP := func(rec *recorder, i int, sql string) (err error) {
		rec.call("httpbackend_predict", i, func() { _, err = remote.Predict(ctx, "imdb", "", sql) })
		return err
	}
	for _, sql := range hotPool {
		for _, fn := range append(replays, viaHTTP) {
			if err := fn(nil, 0, sql); err != nil {
				return err
			}
		}
	}
	lo = len(rec.spans)
	if err := alternate(rec, coldReplay, hot, replays...); err != nil {
		return err
	}
	// On its own: a call that slept on the network slows whatever
	// in-process call comes next.
	if err := alternate(rec, coldReplay, hot[:hotReplay/2], viaHTTP); err != nil {
		return err
	}
	sec = rec.section(lo)
	v["costmodel.fingerprint_us"] = sec.us("fingerprint")
	v["costmodel.plancache_get_us"] = sec.us("plancache_get")
	v["costmodel.warm_encode_us"] = sec.us(serving.StageEncode)
	v["costmodel.predict1_us"] = sec.us(serving.StagePredict)
	v["serving.predict_hot_us"] = sec.totalUs("session_predict")
	v["serving.self_hot_us"] = v["serving.predict_hot_us"] - sum(sec)
	v["cluster.router_inprocess_us"] = sec.totalUs("router_predict") - v["serving.predict_hot_us"]
	v["cluster.httpbackend_hop_us"] = sec.totalUs("httpbackend_predict") - v["serving.predict_hot_us"]

	// Sum check. The serving layer's own time (scheduler hand-off, session
	// bookkeeping) has no public entry point, so it is measured where it is
	// nearly all there is, on the hot path; with it, the layers taken apart
	// must account for the cold path too.
	v["serving.layer_sum_ratio"] = (coldSum + v["serving.self_hot_us"]) / v["serving.predict_cold_us"]
	if r := v["serving.layer_sum_ratio"]; r < 0.90 || r > 1.10 {
		fmt.Fprintf(os.Stderr, "bench: layer sum check FAILED: cold layers %.1f us + serving self %.1f us = %.0f%% of Session.Predict cold %.1f us\n",
			coldSum, v["serving.self_hot_us"], 100*r, v["serving.predict_cold_us"])
	}
	return nil
}

// layerBatch replays the head of the warm-batch stream: packing and the
// fused pass on their own at three batch sizes, then Estimator.PredictBatch
// warm and cold, then Session.PredictBatch.
func layerBatch(e *env, seed int64, rec *recorder, v map[string]float64) error {
	ctx := context.Background()
	imdb := e.dbs["imdb"]
	sqls := pool(imdb, batchPoolSize, batchPoolSeed)
	p, err := newPipeline(e, imdb, len(sqls))
	if err != nil {
		return err
	}
	zs, ok := p.est.(*costmodel.ZeroShot)
	if !ok {
		return fmt.Errorf("benchmark model is %T, not the zero-shot estimator", p.est)
	}
	ins := make(map[string]costmodel.PlanInput, len(sqls))
	for _, sql := range sqls {
		in, _, err := p.prepare(nil, 0, sql)
		if err != nil {
			return err
		}
		if err := p.warm.WarmEncode(in); err != nil {
			return err
		}
		ins[sql] = in
	}
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]string, batchReplay)
	for b := range batches {
		batches[b] = make([]string, batchSize)
		for j := range batches[b] {
			batches[b][j] = sqls[rng.Intn(len(sqls))]
		}
	}
	enc := encoding.NewPlanEncoder(imdb.Schema, zs.Card())
	graphs := make([]*encoding.Graph, batchSize)
	for j, sql := range batches[0] {
		if graphs[j], err = enc.Encode(ins[sql].Plan); err != nil {
			return err
		}
	}

	lo := len(rec.spans)
	for b := range batches {
		rec.call("pack", b, func() { encoding.Pack(graphs) })
		for _, n := range []int{1, 64, 256} {
			// Batches of one are cheap: run as many as a larger batch holds
			// graphs, so every size is timed over comparable work.
			rec.call(fmt.Sprintf("fused_b%d", n), b, func() {
				for g := 0; g+n <= min(len(graphs), 64*n); g += n {
					zs.Model().PredictBatch(graphs[g : g+n])
				}
			})
		}
	}
	sec := rec.section(lo)
	v["encoding.pack_us_per_graph"] = sec.us("pack") / batchSize
	v["zeroshot.fused_us_per_graph_b1"] = sec.us("fused_b1") / 64
	v["zeroshot.fused_us_per_graph_b64"] = sec.us("fused_b64") / 256
	v["zeroshot.fused_us_per_graph_b256"] = sec.us("fused_b256") / 256

	lo = len(rec.spans)
	for b, batch := range batches {
		warm := make([]costmodel.PlanInput, len(batch))
		cold := make([]costmodel.PlanInput, len(batch))
		for j, sql := range batch {
			warm[j] = ins[sql]
			cold[j] = ins[sql]
			cold[j].Enc = costmodel.NewEncodedPlan() // same plan, nothing memoised
		}
		rec.call("predict_batch_warm", b, func() { _, err = p.est.PredictBatch(ctx, warm) })
		if err != nil {
			return err
		}
		rec.call("predict_batch_cold", b, func() { _, err = p.est.PredictBatch(ctx, cold) })
		if err != nil {
			return err
		}
	}
	sec = rec.section(lo)
	v["costmodel.predict_batch_warm_us_per_item"] = sec.us("predict_batch_warm") / batchSize
	v["costmodel.predict_batch_cold_us_per_item"] = sec.us("predict_batch_cold") / batchSize

	sess, err := newReference(e, []string{"imdb"})
	if err != nil {
		return err
	}
	defer sess.Close()
	for lo := 0; lo < len(sqls); lo += batchSize {
		if _, err := sess.PredictBatch(ctx, "imdb", "", sqls[lo:lo+batchSize]); err != nil {
			return err
		}
	}
	lo = len(rec.spans)
	for b, batch := range batches {
		rec.call("session_predict_batch", b, func() { _, err = sess.PredictBatch(ctx, "imdb", "", batch) })
		if err != nil {
			return err
		}
	}
	v["serving.predict_batch256_ms"] = rec.section(lo).totalUs("session_predict_batch") / 1e3

	// MatMulInto at the model's own widest shape, the combine layer over
	// the nodes of a 256-plan batch. The rate is computed from the
	// operation count, not sampled.
	hidden := zs.Model().Config().Hidden
	const rows, calls = 2048, 60
	a, w, dst := nn.NewTensor(rows, 2*hidden), nn.NewTensor(2*hidden, hidden), nn.NewTensor(rows, hidden)
	for i := range a.Data {
		a.Data[i] = rng.Float64() + 0.1 // no zeros: MatMulInto skips them
	}
	for i := range w.Data {
		w.Data[i] = rng.Float64() - 0.5
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		nn.MatMulInto(dst, a, w)
	}
	flops := float64(calls) * 2 * rows * float64(2*hidden) * float64(hidden)
	v["nn.matmul_gflops"] = flops / time.Since(start).Seconds() / 1e9
	return nil
}

// layerWhatIf replays the head of the whatif-sweep stream through
// Session.WhatIf, and candidate enumeration on its own.
func layerWhatIf(e *env, seed int64, rec *recorder, v map[string]float64) error {
	imdb := e.dbs["imdb"]
	sess, err := newReference(e, []string{"imdb"})
	if err != nil {
		return err
	}
	defer sess.Close()
	fresh := newDistinct(imdb, seed)
	lo := len(rec.spans)
	for s := 0; s < sweepReplay; s++ {
		sqls := make([]string, sweepSize)
		queries := make([]*query.Query, sweepSize)
		for j := range sqls {
			sqls[j] = fresh.take()
			if queries[j], err = sqlparse.Parse(sqls[j], imdb.Schema); err != nil {
				return err
			}
		}
		rec.call("enumerate", s, func() { _, err = whatif.Enumerate(imdb.Schema, queries, nil, whatIfCandidates) })
		if err != nil {
			return err
		}
		rec.call("whatif", s, func() {
			_, err = sess.WhatIf(context.Background(), "imdb", "", whatif.Request{SQL: sqls, MaxCandidates: whatIfCandidates})
		})
		if err != nil {
			return err
		}
	}
	sec := rec.section(lo)
	v["whatif.enumerate_us"] = sec.us("enumerate")
	v["whatif.sweep_ms"] = sec.us("whatif") / 1e3
	v["whatif.cache_hit_ratio"] = 0
	if c := sess.Stats().Databases[0].WhatIfCache; c != nil {
		v["whatif.cache_hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	}
	return nil
}

// layerFewshot replays the head of the fewshot-cycle stream with spans
// around feedback ingestion, the adaptation sweep and the replica's
// activation: a fixed number of cycles, or as many as fit in dur.
func layerFewshot(e *env, seed int64, rec *recorder, cycles int, dur time.Duration, v map[string]float64, ph *phases) error {
	f, err := newFewshot(e)
	if err != nil {
		return err
	}
	defer f.close()
	_, next := fewshotStream(f.pool, seed)
	lo := len(rec.spans)
	var counts phase
	start := time.Now()
	for n := 0; (cycles > 0 && n < cycles) || (cycles == 0 && time.Since(start) < dur); n++ {
		var err error
		rec.call("cycle", f.cycles, func() { _, err = f.cycle(rec, next) })
		counts.attempted++
		if err != nil {
			counts.fail(err)
		}
	}
	ph.add("traced-cycles", counts)
	sec := rec.section(lo)
	st := f.loop.Status()
	v["adapt.cycle_ms"] = median(sec.durationsUs("cycle")) / 1e3
	v["adapt.feedback_us"] = sec.us("feedback")
	v["adapt.sweep_ms"] = sec.us("sweep") / 1e3
	v["adapt.accept_ratio"] = ratio(float64(st.SwapsAccepted), float64(st.SwapsAccepted+st.SwapsRejected))
	v["zeroshot.finetune_samples_per_s"] = st.FineTuneSamplesPerSec
	v["bundle.publish_to_active_ms"] = mean(f.toActiveMs)

	est, err := f.a.Model(f.model)
	if err != nil {
		return err
	}
	var builds, opens []float64
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if _, err := bundle.Build(&buf, est, int64(i+1), bundle.Meta{}); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := bundle.Open(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		builds = append(builds, float64(t1.Sub(t0))/float64(time.Millisecond))
		opens = append(opens, float64(time.Since(t1))/float64(time.Millisecond))
	}
	v["bundle.build_ms"] = median(builds)
	v["bundle.open_ms"] = median(opens)
	return nil
}

// layerSetup times what a booting server pays before it can answer, and a
// short Fit for the training engine's throughput.
func layerSetup(e *env, seed int64, rec *recorder, v map[string]float64) error {
	var gen, collectMs, load []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		db, err := datagen.IMDBLike(dbScale)
		if err != nil {
			return err
		}
		t1 := time.Now()
		stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
		t2 := time.Now()
		if _, err := loadModel(e.model); err != nil {
			return err
		}
		gen = append(gen, float64(t1.Sub(t0))/float64(time.Millisecond))
		collectMs = append(collectMs, float64(t2.Sub(t1))/float64(time.Millisecond))
		load = append(load, float64(time.Since(t2))/float64(time.Millisecond))
	}
	v["datagen.imdb_ms"] = median(gen)
	v["stats.collect_ms"] = median(collectMs)
	v["costmodel.load_ms"] = median(load)

	// One small synthetic database, a few epochs: enough minibatches for
	// the rate to mean something, short enough for every traced run.
	db, err := datagen.Generate("fitprobe", modelSeed, datagen.DefaultConfig())
	if err != nil {
		return err
	}
	recs, err := collect.Run(db, collect.Options{Queries: 48, Seed: modelSeed})
	if err != nil {
		return err
	}
	est, err := costmodel.New(costmodel.NameZeroShot, costmodel.Options{Seed: modelSeed, Card: encoding.CardEstimated, Epochs: 8})
	if err != nil {
		return err
	}
	var report *costmodel.FitReport
	rec.call("fit", 0, func() { report, err = est.Fit(context.Background(), costmodel.FromRecords(db, recs)) })
	if err != nil {
		return err
	}
	v["zeroshot.fit_samples_per_s"] = report.SamplesPerSec
	return nil
}

// layerPrimitives times the two observers every request passes through:
// the latency recorder (alone, and contended by two goroutines as it is
// under two connections) and a tracer that samples nothing.
func layerPrimitives(v map[string]float64) {
	const n = 200_000
	var l metrics.LatencyRecorder
	start := time.Now()
	for i := 0; i < n; i++ {
		l.Observe(time.Duration(i))
	}
	v["metrics.latency_observe_ns"] = float64(time.Since(start)) / n

	var wg sync.WaitGroup
	start = time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				l.Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	v["metrics.latency_observe_2g_ns"] = float64(time.Since(start)) / (n / 2)

	const snaps = 200
	start = time.Now()
	for i := 0; i < snaps; i++ {
		l.Snapshot()
	}
	v["metrics.latency_snapshot_us"] = float64(time.Since(start)) / float64(time.Microsecond) / snaps

	idle := obs.NewTracer(obs.TraceConfig{SlowThreshold: 250 * time.Millisecond})
	start = time.Now()
	for i := 0; i < n; i++ {
		tr, begin := idle.Begin()
		idle.Finish(tr, "predict", "imdb", "zeroshot", "", begin, nil)
	}
	v["obs.tracer_idle_ns"] = float64(time.Since(start)) / n
}
