// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). The benches run the
// experiments at a laptop-sized configuration and report the headline
// numbers as custom benchmark metrics; `zsdb <experiment> -scale full`
// runs the paper-sized version.
package zeroshotdb_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/baselines"
	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/experiments"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/zeroshot"
)

// benchConfig is the calibrated laptop-scale configuration (matches the
// committed numbers in EXPERIMENTS.md).
func benchConfig() experiments.Config {
	model := zeroshot.DefaultConfig()
	model.Hidden = 24
	model.Epochs = 12
	base := baselines.DefaultConfig()
	base.Epochs = 12
	dg := datagen.DefaultConfig()
	dg.MaxRows = 15000
	return experiments.Config{
		TrainDBs:      4,
		QueriesPerDB:  100,
		EvalQueries:   50,
		BaselineSizes: []int{50, 200, 500},
		Seed:          2,
		IMDBScale:     0.08,
		Model:         model,
		Baselines:     base,
		DatagenCfg:    dg,
	}
}

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

func sharedBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.Prepare(benchConfig())
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

var (
	fig3Once sync.Once
	fig3Res  *experiments.Figure3Result
	fig3Err  error
)

func sharedFigure3(b *testing.B) *experiments.Figure3Result {
	b.Helper()
	env := sharedBenchEnv(b)
	fig3Once.Do(func() {
		fig3Res, fig3Err = experiments.Figure3(env)
	})
	if fig3Err != nil {
		b.Fatal(fig3Err)
	}
	return fig3Res
}

// benchFigure3Panel reports one workload panel of Figure 3 (E1): the
// workload-driven error curve and the zero-shot lines.
func benchFigure3Panel(b *testing.B, workload string) {
	for i := 0; i < b.N; i++ {
		res := sharedFigure3(b)
		curve := res.Curves[workload]
		last := curve[len(curve)-1]
		b.ReportMetric(res.ZeroShotExact[workload], "zs-exact-median")
		b.ReportMetric(res.ZeroShotEst[workload], "zs-est-median")
		b.ReportMetric(last.Median[costmodel.NameMSCN], "mscn-maxtrain-median")
		b.ReportMetric(last.Median[costmodel.NameE2E], "e2e-maxtrain-median")
		b.ReportMetric(last.Median[costmodel.NameScaledCost], "scaledcost-median")
	}
}

func BenchmarkFigure3_Scale(b *testing.B)     { benchFigure3Panel(b, experiments.WorkloadScale) }
func BenchmarkFigure3_Synthetic(b *testing.B) { benchFigure3Panel(b, experiments.WorkloadSynthetic) }
func BenchmarkFigure3_JOBLight(b *testing.B)  { benchFigure3Panel(b, experiments.WorkloadJOBLight) }

// BenchmarkFigure3_CollectionTime reproduces panel 4 of Figure 3 (E2): the
// hours of executed workload required to collect the baselines' training
// data on the unseen database (zero for zero-shot models).
func BenchmarkFigure3_CollectionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedFigure3(b)
		maxN := 0
		for n := range res.CollectionHours {
			if n > maxN {
				maxN = n
			}
		}
		b.ReportMetric(res.CollectionHours[maxN], "hours-at-max-trainset")
		b.ReportMetric(0, "hours-zero-shot")
	}
}

var (
	table1Once sync.Once
	table1Res  *experiments.Table1Result
	table1Err  error
)

func sharedTable1(b *testing.B) *experiments.Table1Result {
	b.Helper()
	env := sharedBenchEnv(b)
	table1Once.Do(func() {
		table1Res, table1Err = experiments.Table1(env)
	})
	if table1Err != nil {
		b.Fatal(table1Err)
	}
	return table1Res
}

// BenchmarkTable1 reproduces rows 1-3 of Table 1 (E3): zero-shot Q-errors
// with exact vs estimated cardinalities on the three workloads.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedTable1(b)
		for _, row := range res.Rows[:3] {
			b.ReportMetric(row.Exact.Median, row.Workload+"-exact-median")
			b.ReportMetric(row.Est.Median, row.Workload+"-est-median")
		}
	}
}

// BenchmarkTable1_Index reproduces the last row of Table 1 (E4): the
// what-if index-tuning Q-errors.
func BenchmarkTable1_Index(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedTable1(b)
		row := res.Rows[3]
		b.ReportMetric(row.Exact.Median, "exact-median")
		b.ReportMetric(row.Exact.Max, "exact-max")
		b.ReportMetric(row.Est.Median, "est-median")
		b.ReportMetric(row.Est.Max, "est-max")
	}
}

// BenchmarkDBCountSweep reproduces E5: holdout error vs number of training
// databases (Section 3.2's "after 19 databases the performance stagnated").
func BenchmarkDBCountSweep(b *testing.B) {
	env := sharedBenchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.DBCountSweep(env, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		first := res.Points[0]
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(first.Median, "median-1db")
		b.ReportMetric(last.Median, "median-alldbs")
	}
}

// BenchmarkFewShot reproduces E6: few-shot fine-tuning vs training a
// workload-driven model from scratch on the same target queries.
func BenchmarkFewShot(b *testing.B) {
	env := sharedBenchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.FewShot(env, []int{10, 50})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ZeroShotBaseline, "zeroshot-median")
		b.ReportMetric(res.Points[0].FewShot, "fewshot10-median")
		b.ReportMetric(res.Points[0].FromScratch, "scratch10-median")
	}
}

// BenchmarkOnlineAdaptation runs E7: an unseen database's workload
// streamed through a serving Session with feedback, the adaptation loop
// fine-tuning and hot-swapping in the background of every chunk. The
// first/last chunk medians are the online analogue of E6's few-shot
// curve.
func BenchmarkOnlineAdaptation(b *testing.B) {
	env := sharedBenchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.OnlineAdaptation(env, 60, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.First(), "first-chunk-median")
		b.ReportMetric(res.Last(), "last-chunk-median")
		b.ReportMetric(float64(res.SwapsAccepted), "swaps-accepted")
		b.ReportMetric(float64(res.SwapsRejected), "swaps-rejected")
	}
}

// BenchmarkWhatIfAdvisor runs E10: a full what-if sweep on the unseen
// database — enumerated candidates, the whole (variant × statement)
// cross product priced through one fused batch — verified against the
// executed ground truth of the same variants. sweep-ns/item is the cold
// per-item cost: every sweep plans, encodes and prices.
func BenchmarkWhatIfAdvisor(b *testing.B) {
	env := sharedBenchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.WhatIfAdvisor(env, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.NsPerItem, "sweep-ns/item")
		b.ReportMetric(float64(res.Items), "items")
		b.ReportMetric(res.RankCorr, "rank-corr")
		top1 := 0.0
		if res.Top1Agrees {
			top1 = 1
		}
		b.ReportMetric(top1, "top1-agrees")
	}
}

var (
	ablOnce sync.Once
	ablRes  *experiments.AblationResult
	ablErr  error
)

func sharedAblations(b *testing.B) *experiments.AblationResult {
	b.Helper()
	env := sharedBenchEnv(b)
	ablOnce.Do(func() {
		ablRes, ablErr = experiments.Ablations(env)
	})
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return ablRes
}

// BenchmarkAblation_OneHot reproduces A1: the transferable encoding vs a
// one-hot encoding trained on the same multi-database corpus.
func BenchmarkAblation_OneHot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedAblations(b)
		b.ReportMetric(res.ZeroShot.Median, "zeroshot-median")
		b.ReportMetric(res.OneHot.Median, "onehot-median")
	}
}

// BenchmarkAblation_FlatSum reproduces A2: DAG message passing vs a flat
// sum of node encodings.
func BenchmarkAblation_FlatSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedAblations(b)
		b.ReportMetric(res.ZeroShot.Median, "zeroshot-median")
		b.ReportMetric(res.FlatSum.Median, "flatsum-median")
	}
}

// BenchmarkAblation_Cardinalities reproduces A3: exact vs estimated vs no
// cardinality inputs.
func BenchmarkAblation_Cardinalities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedAblations(b)
		b.ReportMetric(res.ZeroShot.Median, "exact-median")
		b.ReportMetric(res.EstCard.Median, "est-median")
		b.ReportMetric(res.NoCard.Median, "nocard-median")
		b.ReportMetric(res.NoCard.P95, "nocard-p95")
		b.ReportMetric(res.ZeroShot.P95, "exact-p95")
	}
}

// --- batched inference: the serving hot path ---

var (
	pbOnce sync.Once
	pbEst  costmodel.Estimator
	pbIns  []costmodel.PlanInput
	pbErr  error
)

// predictBatchSetup trains one zero-shot estimator on an IMDB-like
// database and prepares a batch of prediction inputs — the shape of one
// /v1/predict_batch request against `zsdb serve`.
func predictBatchSetup(b *testing.B) (costmodel.Estimator, []costmodel.PlanInput) {
	b.Helper()
	pbOnce.Do(func() {
		db, err := datagen.IMDBLike(0.08)
		if err != nil {
			pbErr = err
			return
		}
		recs, err := collect.Run(db, collect.Options{Queries: 256, Seed: 7})
		if err != nil {
			pbErr = err
			return
		}
		samples := costmodel.FromRecords(db, recs)
		est, err := costmodel.New(costmodel.NameZeroShot,
			costmodel.Options{Hidden: 24, Epochs: 4, Card: encoding.CardExact})
		if err != nil {
			pbErr = err
			return
		}
		if _, err := est.Fit(context.Background(), samples[:128]); err != nil {
			pbErr = err
			return
		}
		pbEst = est
		pbIns = costmodel.Inputs(samples)
	})
	if pbErr != nil {
		b.Fatal(pbErr)
	}
	return pbEst, pbIns
}

// BenchmarkPredictBatch_Serial predicts a 256-plan batch one input at a
// time, each a batch of one — the pre-costmodel inference path.
func BenchmarkPredictBatch_Serial(b *testing.B) {
	est, ins := predictBatchSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ins {
			if _, err := est.PredictBatch(ctx, ins[j:j+1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(ins))*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkPredictBatch_Parallel predicts the same batch through
// PredictBatch; since the fused-inference refactor this is one fused
// forward pass per batch, and the preds/s ratio over the serial
// benchmark is the speedup of the new hot path.
func BenchmarkPredictBatch_Parallel(b *testing.B) {
	est, ins := predictBatchSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.PredictBatch(ctx, ins); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ins))*float64(b.N)/b.Elapsed().Seconds(), "preds/s")
}

// fanoutPredict reproduces the pre-fusion PredictBatch: per-item
// forward passes fanned over a GOMAXPROCS worker pool — the E9 baseline
// the fused path is measured against.
func fanoutPredict(ctx context.Context, est costmodel.Estimator, ins []costmodel.PlanInput) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ins) {
		workers = len(ins)
	}
	var next atomic.Int64
	next.Store(-1)
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(ins) {
					return
				}
				_, errs[i] = est.PredictBatch(ctx, ins[i:i+1])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkFusedVsFanout is the E9 batched-inference curve: the same
// zero-shot batch priced through the goroutine fan-out over per-item
// tape forwards ("fanout") and through the fused single forward pass
// ("fused"), at batch sizes 1/8/64/256. ReportAllocs makes the
// steady-state allocation story part of the measurement.
func BenchmarkFusedVsFanout(b *testing.B) {
	est, ins := predictBatchSetup(b)
	ctx := context.Background()
	for _, size := range []int{1, 8, 64, 256} {
		batch := ins[:size]
		b.Run(fmt.Sprintf("fanout/b%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fanoutPredict(ctx, est, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*size)*1e9, "ns/item")
		})
		b.Run(fmt.Sprintf("fused/b%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.PredictBatch(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*size)*1e9, "ns/item")
		})
	}
}

// --- serving pipeline: coalesced singles vs per-request prediction ---

var (
	ssOnce sync.Once
	ssEst  costmodel.Estimator
	ssDB   *storage.Database
	ssSQLs []string
	ssErr  error
)

// serveSinglesSetup trains one estimated-cardinality zero-shot estimator
// (serve-time plans are never executed) and prepares a pool of SQL texts
// — the shape of independent /v1/predict clients hitting `zsdb serve`.
func serveSinglesSetup(b *testing.B) (costmodel.Estimator, *storage.Database, []string) {
	b.Helper()
	ssOnce.Do(func() {
		db, err := datagen.IMDBLike(0.08)
		if err != nil {
			ssErr = err
			return
		}
		recs, err := collect.Run(db, collect.Options{Queries: 96, Seed: 17})
		if err != nil {
			ssErr = err
			return
		}
		samples := costmodel.FromRecords(db, recs)
		est, err := costmodel.New(costmodel.NameZeroShot,
			costmodel.Options{Hidden: 24, Epochs: 4, Card: encoding.CardEstimated})
		if err != nil {
			ssErr = err
			return
		}
		if _, err := est.Fit(context.Background(), samples); err != nil {
			ssErr = err
			return
		}
		ssEst = est
		ssDB = db
		for _, r := range recs[:32] {
			ssSQLs = append(ssSQLs, r.Query.SQL())
		}
	})
	if ssErr != nil {
		b.Fatal(ssErr)
	}
	return ssEst, ssDB, ssSQLs
}

// serveSinglesClients is the minimum concurrent-client count both
// serving benchmarks run at (the acceptance bar is coalesced >
// per-request at >= 8 clients).
const serveSinglesClients = 8

// runServeSingles drives concurrent clients round-robining over the SQL
// pool, each predicting one statement per iteration. SetParallelism
// rounds up to a GOMAXPROCS multiple, so the client count is exactly
// serveSinglesClients when GOMAXPROCS divides it and slightly above
// otherwise — never below.
func runServeSingles(b *testing.B, sqls []string, predict func(sql string) error) {
	b.SetParallelism((serveSinglesClients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := predict(sqls[i%len(sqls)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkServeSingles_PerRequest is the pre-serving path: every
// request pays the full parse→optimize→featurize pipeline and predicts
// alone — what the old one-database server did per /v1/predict.
func BenchmarkServeSingles_PerRequest(b *testing.B) {
	est, db, sqls := serveSinglesSetup(b)
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	ctx := context.Background()
	runServeSingles(b, sqls, func(sql string) error {
		q, err := sqlparse.Parse(sql, db.Schema)
		if err != nil {
			return err
		}
		p, err := opt.Plan(q)
		if err != nil {
			return err
		}
		_, err = est.PredictBatch(ctx, []costmodel.PlanInput{{
			DB: db, Query: q, Plan: p, OptimizerCost: optimizer.TotalCost(p),
		}})
		return err
	})
}

// BenchmarkServeSingles_Coalesced is the serving pipeline: the session's
// plan cache absorbs repeated query shapes and the scheduler coalesces
// the concurrent singles into micro-batches draining through
// PredictBatch. The preds/s ratio over PerRequest is the win of the
// serving layer for p50 single-request traffic.
func BenchmarkServeSingles_Coalesced(b *testing.B) {
	est, db, sqls := serveSinglesSetup(b)
	sess := serving.NewSession(serving.Config{})
	defer sess.Close()
	if err := sess.AttachDatabase("imdb", db); err != nil {
		b.Fatal(err)
	}
	if err := sess.AttachModel(est); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	runServeSingles(b, sqls, func(sql string) error {
		_, err := sess.Predict(ctx, "imdb", "", sql)
		return err
	})
	st := sess.Stats()
	if st.Scheduler.Batches > 0 {
		b.ReportMetric(st.Scheduler.MeanBatchSize, "batch-size")
	}
}
