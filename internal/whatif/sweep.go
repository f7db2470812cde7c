package whatif

import (
	"context"
	"sort"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// Sweep prices the workload on db, whose collected statistics are st,
// under the baseline and every variant, and returns the variants ranked
// by predicted workload runtime. A variant's indexes exist only as the
// IndexSet of the optimizer that plans it, never in storage (sweeps
// never execute), so concurrent sweeps share db and st without a lock,
// and a sweep keeps nothing once its report is built.
//
// The executor walks every (variant × statement) pair but plans each
// DISTINCT plan once: a pair's variant is first restricted to the indexes
// the statement's plan can depend on (optimizer.RelevantIndexes), so every
// variant that cannot touch a statement shares the baseline's plan and
// its encoding. The distinct plans — baseline included — are priced
// through one Estimator.PredictBatch call (with a fusing estimator a
// single tape-free forward pass), each prediction fans back out to the
// pairs that share it, and no plan outlives the report. Errors are
// structured per item: a statement that fails to plan or price under one
// variant carries its own error in that variant's QueryResult — as does
// every other pair sharing the failed plan — and the rest of the sweep
// still prices. The error return is reserved for request-level failures
// (empty workload, no variants, context cancellation — checked once per
// pair and inside the estimator, so an abandoned sweep stops mid-flight
// and returns the context's error).
func Sweep(ctx context.Context, db *storage.Database, st *stats.DBStats, est costmodel.Estimator, stmts []Statement, variants []Variant) (*Report, error) {
	if len(stmts) == 0 {
		return nil, ErrEmptyWorkload
	}
	if len(variants) == 0 {
		return nil, ErrNoVariants
	}

	// The baseline is always variant 0; results[0] is pulled out of the
	// ranking afterwards.
	all := make([]Variant, 0, len(variants)+1)
	all = append(all, Variant{})
	all = append(all, variants...)
	relevant := make([]optimizer.IndexSet, len(stmts))
	for si, stmt := range stmts {
		relevant[si] = optimizer.RelevantIndexes(stmt.Query)
	}

	results := make([]VariantResult, len(all))
	// ins collects the distinct plans; planned maps (restricted
	// signature, statement) to the plan's slot in ins, or to why it has
	// none; pos lists the priceable pairs, each with its plan's slot.
	var ins []costmodel.PlanInput
	type planKey struct {
		sig string
		s   int
	}
	type slot struct {
		in  int
		err error
	}
	planned := map[planKey]slot{}
	type pair struct{ v, s, in int }
	var pos []pair
	for vi, v := range all {
		results[vi] = VariantResult{
			Name:    v.displayName(),
			Indexes: append([]string(nil), v.Indexes...),
			Queries: make([]QueryResult, len(stmts)),
		}
		for si, stmt := range stmts {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			qr := &results[vi].Queries[si]
			qr.SQL = stmt.SQL
			rv := v.restrictedTo(relevant[si])
			key := planKey{rv.signature(), si}
			p, ok := planned[key]
			if !ok {
				var in costmodel.PlanInput
				if in, p.err = plan(db, st, rv, stmt); p.err == nil {
					p.in = len(ins)
					ins = append(ins, in)
				}
				planned[key] = p
			}
			if p.err != nil {
				qr.Error = p.err.Error()
				results[vi].Errors++
				continue
			}
			pos = append(pos, pair{vi, si, p.in})
		}
	}

	// One fused pass over the sweep's distinct plans. A batch-level abort
	// (first bad input wins) falls back to per-plan predictions, each
	// plan once, so each pair carries exactly its plan's error — unless
	// the caller's context died, in which case the sweep is over.
	preds, failed, _ := costmodel.PredictEach(ctx, est, ins)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, p := range pos {
		qr := &results[p.v].Queries[p.s]
		switch {
		case failed != nil && failed[p.in] != nil:
			qr.Error = failed[p.in].Error()
			results[p.v].Errors++
		case preds[p.in] < 0: // not a runtime: the pair stays unpriced
		default:
			qr.PredictedSec = preds[p.in]
		}
	}

	// Totals, per-query baselines and workload speedups. Workload
	// speedups compare only statements priced under BOTH the baseline
	// and the variant, so a variant is never rewarded for failing to
	// price an expensive query.
	base := &results[0]
	for vi := range results {
		vr := &results[vi]
		var total, sharedBase, sharedVar float64
		for si := range vr.Queries {
			qr := &vr.Queries[si]
			bq := base.Queries[si]
			if qr.Error != "" {
				continue
			}
			total += qr.PredictedSec
			if bq.Error != "" {
				continue
			}
			qr.BaselineSec = bq.PredictedSec
			if qr.PredictedSec > 0 {
				qr.SpeedupX = bq.PredictedSec / qr.PredictedSec
			}
			sharedBase += bq.PredictedSec
			sharedVar += qr.PredictedSec
		}
		vr.TotalSec = total
		if sharedVar > 0 {
			vr.SpeedupX = sharedBase / sharedVar
		}
	}

	ranked := results[1:]
	sort.SliceStable(ranked, func(a, b int) bool {
		if ranked[a].TotalSec != ranked[b].TotalSec {
			return ranked[a].TotalSec < ranked[b].TotalSec
		}
		return ranked[a].Name < ranked[b].Name
	})

	r := &Report{
		Baseline: results[0],
		Variants: ranked,
		Items:    len(pos),
	}
	if len(ranked) > 0 && ranked[0].TotalSec < results[0].TotalSec {
		r.Recommendation = ranked[0].Name
	}
	return r, nil
}

// plan plans one statement under one variant. The input carries no
// EncodedPlan memo: the sweep prices it once and drops it.
func plan(db *storage.Database, st *stats.DBStats, v Variant, stmt Statement) (costmodel.PlanInput, error) {
	// Building an optimizer is a struct literal over shared pointers, so
	// every plan builds its own rather than caching one per variant.
	opt := optimizer.New(db.Schema, st, v.indexSet(), optimizer.DefaultCostParams())
	p, err := opt.Plan(stmt.Query)
	if err != nil {
		return costmodel.PlanInput{}, err
	}
	return costmodel.PlanInput{
		DB:            db,
		Query:         stmt.Query,
		Plan:          p,
		OptimizerCost: optimizer.TotalCost(p),
	}, nil
}
