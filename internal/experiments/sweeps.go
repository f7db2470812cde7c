package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// SweepPoint is one measurement of the training-database-count sweep (E5).
type SweepPoint struct {
	TrainDBs int
	// Median Q-error on the held-out database (synthetic workload,
	// exact cardinalities).
	Median float64
}

// DBCountSweepResult reproduces the Section 3.2 claim that holdout
// performance stagnates after a moderate number of training databases.
type DBCountSweepResult struct {
	Points []SweepPoint
}

// DBCountSweep trains zero-shot models on growing prefixes of the training
// corpus and evaluates each on the held-out database. counts defaults to
// 1..len(TrainDBs) in doubling steps when nil.
func DBCountSweep(env *Env, counts []int) (*DBCountSweepResult, error) {
	ctx := context.Background()
	if len(counts) == 0 {
		for n := 1; n < len(env.TrainDBs); n *= 2 {
			counts = append(counts, n)
		}
		counts = append(counts, len(env.TrainDBs))
	}
	sort.Ints(counts)
	res := &DBCountSweepResult{}
	for _, n := range counts {
		if n <= 0 || n > len(env.TrainDBs) {
			return nil, fmt.Errorf("experiments: sweep count %d outside 1..%d", n, len(env.TrainDBs))
		}
		est, err := env.NewEstimator(costmodel.NameZeroShot, encoding.CardExact)
		if err != nil {
			return nil, err
		}
		if _, err := est.Fit(ctx, env.trainingSamples(false, n)); err != nil {
			return nil, err
		}
		s, err := env.evalSummary(est, WorkloadSynthetic)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, SweepPoint{TrainDBs: n, Median: s.Median})
	}
	return res, nil
}

// Render prints the sweep.
func (r *DBCountSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("== holdout median q-error vs #training databases ==\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%4d databases: median q-error %.2f\n", p.TrainDBs, p.Median)
	}
	return b.String()
}

// FewShotPoint is one measurement of the few-shot experiment (E6).
type FewShotPoint struct {
	TargetQueries int
	// FewShot is the median Q-error of the pretrained zero-shot model
	// fine-tuned on TargetQueries queries of the evaluation database.
	FewShot float64
	// FromScratch is the median Q-error of an E2E model trained from
	// scratch on the same queries.
	FromScratch float64
}

// FewShotResult reproduces the Section 4.3 claim: adapting a zero-shot
// model needs far fewer target-database queries than training a
// workload-driven model from scratch.
type FewShotResult struct {
	ZeroShotBaseline float64 // median q-error with no fine-tuning
	Points           []FewShotPoint
}

// FewShot runs experiment E6 over the given target-query counts.
func FewShot(env *Env, ks []int) (*FewShotResult, error) {
	ctx := context.Background()
	if len(ks) == 0 {
		ks = []int{10, 50, 100}
	}
	sort.Ints(ks)
	maxK := ks[len(ks)-1]
	// Fine-tuning pool collected on the evaluation database, disjoint from
	// evaluation records by seed.
	pool, err := collect.Run(env.EvalDB, collect.Options{
		Queries: maxK,
		Seed:    env.Cfg.Seed + 555_000,
	})
	if err != nil {
		return nil, err
	}
	poolSamples := costmodel.FromRecords(env.EvalDB, pool)

	base, err := env.fitZeroShot(encoding.CardExact, false)
	if err != nil {
		return nil, err
	}
	baseSum, err := env.evalSummary(base, WorkloadSynthetic)
	if err != nil {
		return nil, err
	}
	res := &FewShotResult{ZeroShotBaseline: baseSum.Median}

	for _, k := range ks {
		if k > len(poolSamples) {
			return nil, fmt.Errorf("experiments: few-shot k=%d exceeds pool %d", k, len(poolSamples))
		}
		// Few-shot: retrain a fresh copy from the multi-DB corpus, then
		// fine-tune (training mutates the model, so rebuild).
		fs, err := env.fitZeroShot(encoding.CardExact, false)
		if err != nil {
			return nil, err
		}
		tuner, ok := fs.(costmodel.Tuner)
		if !ok {
			return nil, fmt.Errorf("experiments: %s estimator does not support fine-tuning", fs.Name())
		}
		if _, err := tuner.FineTune(ctx, poolSamples[:k], 10, 0); err != nil {
			return nil, err
		}
		fsSum, err := env.evalSummary(fs, WorkloadSynthetic)
		if err != nil {
			return nil, err
		}

		// From scratch: E2E on the same k queries.
		scratch, err := env.NewEstimator(costmodel.NameE2E, encoding.CardEstimated)
		if err != nil {
			return nil, err
		}
		if _, err := scratch.Fit(ctx, poolSamples[:k]); err != nil {
			return nil, err
		}
		sSum, err := env.evalSummary(scratch, WorkloadSynthetic)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, FewShotPoint{
			TargetQueries: k,
			FewShot:       fsSum.Median,
			FromScratch:   sSum.Median,
		})
	}
	return res, nil
}

// Render prints the few-shot comparison.
func (r *FewShotResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== few-shot vs from-scratch (median q-error, synthetic workload) ==\n")
	fmt.Fprintf(&b, "zero-shot, no target queries: %.2f\n", r.ZeroShotBaseline)
	fmt.Fprintf(&b, "%10s %10s %13s\n", "#queries", "few-shot", "from-scratch")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %10.2f %13.2f\n", p.TargetQueries, p.FewShot, p.FromScratch)
	}
	return b.String()
}
