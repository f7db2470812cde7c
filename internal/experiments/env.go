// Package experiments implements the end-to-end reproduction harness for
// every table and figure of the paper's evaluation:
//
//   - E1/E2 (Figure 3): estimation errors of workload-driven models vs
//     training-set size, compared with zero-shot models, plus the
//     training-data collection time panel.
//   - E3/E4 (Table 1): Q-error summaries of zero-shot models with exact vs
//     estimated cardinalities on scale/synthetic/JOB-light, and the what-if
//     index-tuning row.
//   - E5: holdout error vs number of training databases ("after 19
//     databases the performance stagnated").
//   - E6: few-shot fine-tuning vs training workload-driven models from
//     scratch.
//   - A1-A3: ablations (one-hot vs transferable encoding, message passing
//     vs flat sum, cardinality input quality).
//
// DESIGN.md maps each experiment to its bench target.
package experiments

import (
	"context"
	"fmt"

	"github.com/zeroshot-db/zeroshot/internal/baselines"
	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/par"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/zeroshot"
)

// Workload names used throughout the harness (the paper's three evaluation
// workloads plus the index what-if workload).
const (
	WorkloadScale     = "scale"
	WorkloadSynthetic = "synthetic"
	WorkloadJOBLight  = "job-light"
	WorkloadIndex     = "index"
)

// EvalWorkloads lists the three non-index evaluation workloads in the
// paper's presentation order.
var EvalWorkloads = []string{WorkloadScale, WorkloadSynthetic, WorkloadJOBLight}

// Config sizes an experiment run. The paper's scale (19 databases x 5000
// queries, baselines up to 50000 queries) is reachable via FullConfig;
// SmallConfig keeps the complete suite in CPU-minutes.
type Config struct {
	// TrainDBs is the number of synthetic training databases.
	TrainDBs int
	// QueriesPerDB is the number of training queries per database.
	QueriesPerDB int
	// EvalQueries is the evaluation workload size per benchmark.
	EvalQueries int
	// BaselineSizes are the training-set sizes swept in Figure 3.
	BaselineSizes []int
	// Seed drives every random choice.
	Seed int64
	// IMDBScale scales the held-out evaluation database.
	IMDBScale float64
	// Model holds the zero-shot hyperparameters, Baselines the ones MSCN
	// and E2E share.
	Model     zeroshot.Config
	Baselines baselines.Config
	// DatagenCfg bounds the synthetic training databases.
	DatagenCfg datagen.Config
}

// SmallConfig returns a configuration that runs the full suite in a few
// CPU-minutes (used by tests and testing.B benches).
func SmallConfig() Config {
	model := zeroshot.DefaultConfig()
	model.Hidden = 24
	model.Epochs = 12
	base := baselines.DefaultConfig()
	base.Epochs = 12
	dg := datagen.DefaultConfig()
	dg.MaxRows = 15000
	return Config{
		TrainDBs:      8,
		QueriesPerDB:  150,
		EvalQueries:   80,
		BaselineSizes: []int{100, 400, 1200},
		Seed:          1,
		IMDBScale:     0.08,
		Model:         model,
		Baselines:     base,
		DatagenCfg:    dg,
	}
}

// FullConfig returns the paper-scale configuration (19 databases, 5000
// queries each, baseline sweep to 50000). Expect hours of CPU time.
func FullConfig() Config {
	cfg := SmallConfig()
	cfg.TrainDBs = 19
	cfg.QueriesPerDB = 5000
	cfg.EvalQueries = 500
	cfg.BaselineSizes = []int{100, 500, 2500, 10000, 50000}
	cfg.IMDBScale = 0.2
	cfg.Model = zeroshot.DefaultConfig()
	cfg.Baselines = baselines.DefaultConfig()
	return cfg
}

// Env holds the shared prepared state of an experiment run: training
// corpora, the held-out evaluation database, and collected records.
type Env struct {
	Cfg Config
	// TrainDBs are the synthetic training databases (the held-out
	// evaluation database is never among them).
	TrainDBs []*storage.Database
	// TrainRecords holds executed training queries per training database
	// (parallel to TrainDBs), collected without secondary indexes.
	TrainRecords [][]collect.Record
	// IndexTrainRecords holds executed training queries per training
	// database collected under that database's random fixed index set —
	// the paper's index-tuning training setup (Section 4.1).
	IndexTrainRecords [][]collect.Record
	// EvalDB is the held-out IMDB-like database.
	EvalDB *storage.Database
	// EvalRecords maps workload name to executed evaluation queries on
	// EvalDB (the index workload's records run under random hypothetical
	// indexes).
	EvalRecords map[string][]collect.Record
}

// workloadFunc maps a workload name to its generator.
func workloadFunc(name string) (collect.WorkloadFunc, error) {
	switch name {
	case WorkloadScale:
		return query.Scale, nil
	case WorkloadSynthetic, WorkloadIndex:
		return query.Synthetic, nil
	case WorkloadJOBLight:
		return query.JOBLight, nil
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
}

// Prepare builds the environment: generates databases, collects training
// records (with and without indexes) and evaluation records.
func Prepare(cfg Config) (*Env, error) {
	if cfg.TrainDBs <= 0 || cfg.QueriesPerDB <= 0 || cfg.EvalQueries <= 0 {
		return nil, fmt.Errorf("experiments: non-positive sizes in config")
	}
	env := &Env{Cfg: cfg, EvalRecords: map[string][]collect.Record{}}
	dbs, err := datagen.TrainingCorpus(cfg.TrainDBs, cfg.Seed, cfg.DatagenCfg)
	if err != nil {
		return nil, err
	}
	env.TrainDBs = dbs
	env.TrainRecords = make([][]collect.Record, len(dbs))
	env.IndexTrainRecords = make([][]collect.Record, len(dbs))

	// Collection per database is independent; run them concurrently.
	// Results land at fixed indices, so the output is identical to the
	// sequential version.
	errs := par.Each(context.TODO(), len(dbs), func(i int) error {
		db := dbs[i]
		recs, err := collect.Run(db, collect.Options{
			Queries: cfg.QueriesPerDB,
			Seed:    cfg.Seed + int64(i*1000),
		})
		if err != nil {
			return fmt.Errorf("experiments: training collection on %s: %w", db.Schema.Name, err)
		}
		env.TrainRecords[i] = recs

		idx := collect.RandomIndexes(db, cfg.Seed+int64(i*77), 0.7, 0.25)
		idxRecs, err := collect.Run(db, collect.Options{
			Queries: cfg.QueriesPerDB,
			Seed:    cfg.Seed + int64(i*1000) + 500,
			Indexes: idx,
		})
		if err != nil {
			return fmt.Errorf("experiments: index training collection on %s: %w", db.Schema.Name, err)
		}
		env.IndexTrainRecords[i] = idxRecs
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	evalDB, err := datagen.IMDBLike(cfg.IMDBScale)
	if err != nil {
		return nil, err
	}
	env.EvalDB = evalDB
	for wi, w := range EvalWorkloads {
		wf, err := workloadFunc(w)
		if err != nil {
			return nil, err
		}
		recs, err := collect.Run(evalDB, collect.Options{
			Queries:  cfg.EvalQueries,
			Seed:     cfg.Seed + 90000 + int64(wi*13),
			Workload: wf,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: eval collection %s: %w", w, err)
		}
		env.EvalRecords[w] = recs
	}
	// Index workload: random hypothetical indexes on the unseen database.
	evalIdx := collect.RandomIndexes(evalDB, cfg.Seed+4242, 0.7, 0.25)
	idxRecs, err := collect.Run(evalDB, collect.Options{
		Queries:  cfg.EvalQueries,
		Seed:     cfg.Seed + 95001,
		Workload: query.Synthetic,
		Indexes:  evalIdx,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: eval index collection: %w", err)
	}
	env.EvalRecords[WorkloadIndex] = idxRecs
	return env, nil
}

// trainingSamples gathers costmodel samples from the first maxDBs training
// databases (0 = all). withIndexes selects the index-workload training
// records instead of the plain ones. Featurization happens inside the
// estimator adapters, so the same samples feed every registry estimator.
func (env *Env) trainingSamples(withIndexes bool, maxDBs int) []costmodel.Sample {
	if maxDBs <= 0 || maxDBs > len(env.TrainDBs) {
		maxDBs = len(env.TrainDBs)
	}
	var out []costmodel.Sample
	for i := 0; i < maxDBs; i++ {
		recs := env.TrainRecords[i]
		if withIndexes {
			recs = env.IndexTrainRecords[i]
		}
		out = append(out, costmodel.FromRecords(env.TrainDBs[i], recs)...)
	}
	return out
}

// estimatorOptions maps the run config's hyperparameters onto registry
// options for one estimator kind.
func (env *Env) estimatorOptions(name string, card encoding.CardSource) (costmodel.Options, error) {
	switch name {
	case costmodel.NameZeroShot:
		m := env.Cfg.Model
		return costmodel.Options{
			Hidden: m.Hidden, Epochs: m.Epochs, BatchSize: m.BatchSize,
			LR: m.LR, Seed: m.Seed, FlatSum: m.FlatSum, Card: card,
		}, nil
	case costmodel.NameMSCN, costmodel.NameE2E:
		c := env.Cfg.Baselines
		return costmodel.Options{Hidden: c.Hidden, Epochs: c.Epochs, BatchSize: c.BatchSize, LR: c.LR, Seed: c.Seed}, nil
	case costmodel.NameScaledCost:
		return costmodel.Options{}, nil
	default:
		return costmodel.Options{}, fmt.Errorf("experiments: no options mapping for estimator %q", name)
	}
}

// NewEstimator builds a fresh registry estimator sized by the run config.
func (env *Env) NewEstimator(name string, card encoding.CardSource) (costmodel.Estimator, error) {
	opts, err := env.estimatorOptions(name, card)
	if err != nil {
		return nil, err
	}
	return costmodel.New(name, opts)
}

// fitZeroShot trains a fresh zero-shot estimator on the training corpus
// with the given cardinality source.
func (env *Env) fitZeroShot(card encoding.CardSource, withIndexes bool) (costmodel.Estimator, error) {
	est, err := env.NewEstimator(costmodel.NameZeroShot, card)
	if err != nil {
		return nil, err
	}
	if _, err := est.Fit(context.Background(), env.trainingSamples(withIndexes, 0)); err != nil {
		return nil, err
	}
	return est, nil
}

// evalInputs returns a workload's evaluation records as prediction inputs
// plus the measured runtimes.
func (env *Env) evalInputs(workload string) ([]costmodel.PlanInput, []float64, error) {
	recs, ok := env.EvalRecords[workload]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: no eval records for %q", workload)
	}
	samples := costmodel.FromRecords(env.EvalDB, recs)
	actuals := make([]float64, len(samples))
	for i, s := range samples {
		actuals[i] = s.RuntimeSec
	}
	return costmodel.Inputs(samples), actuals, nil
}

// evalEstimator batch-predicts a workload with any estimator and returns
// (predictions, actuals). Evaluation inputs carry executed plans (exact
// cardinalities), so the harness owns every stage before the estimator's
// PredictBatch.
func (env *Env) evalEstimator(est costmodel.Estimator, workload string) ([]float64, []float64, error) {
	ins, actuals, err := env.evalInputs(workload)
	if err != nil {
		return nil, nil, err
	}
	preds, err := est.PredictBatch(context.Background(), ins)
	if err != nil {
		return nil, nil, err
	}
	return preds, actuals, nil
}

// evalSummary evaluates an estimator on a workload and summarizes the
// q-errors — the one eval path every experiment shares.
func (env *Env) evalSummary(est costmodel.Estimator, workload string) (metrics.Summary, error) {
	preds, actuals, err := env.evalEstimator(est, workload)
	if err != nil {
		return metrics.Summary{}, err
	}
	return metrics.Summarize(preds, actuals)
}
