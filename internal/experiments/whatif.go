package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/engine"
	"github.com/zeroshot-db/zeroshot/internal/hwsim"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// WhatIfOutcome is one variant's predicted vs executed workload runtime.
type WhatIfOutcome struct {
	Name         string
	PredictedSec float64
	ActualSec    float64
}

// WhatIfResult is the advisor experiment (E10): a full what-if sweep on
// the unseen database — candidates enumerated from the workload, every
// (variant × statement) pair priced through one fused batch — verified
// against the executed ground truth of the same variants.
type WhatIfResult struct {
	// Workload and Candidates size the sweep; Items is the fused batch
	// ((candidates+1) × workload).
	Workload   int
	Candidates int
	Items      int
	// NsPerItem is the sweep cost per (variant × statement) pair: each
	// sweep plans, encodes and prices its distinct plans, because a
	// sweep keeps none once its report is built.
	NsPerItem float64
	// Baseline and Variants hold predicted and executed workload
	// runtimes; Variants keeps the sweep's predicted ranking order.
	Baseline WhatIfOutcome
	Variants []WhatIfOutcome
	// Recommendation is the sweep's top-ranked variant (empty if nothing
	// beats the baseline).
	Recommendation string
	// Top1Agrees reports whether the predicted winner is also the
	// executed winner; RankCorr is the Spearman correlation between the
	// predicted and executed variant rankings (1 = identical order).
	Top1Agrees bool
	RankCorr   float64
}

// WhatIfAdvisor runs E10: the Section 4.1 advisor as the whatif
// subsystem serves it. A zero-shot model trained on plain AND
// index-workload plans of the training databases (never the evaluation
// database) sweeps an unseen-database workload over enumerated index
// candidates; the predicted ranking is then verified by materializing
// each candidate and executing the workload under it. queries defaults
// to 32, sized so the fused sweep batch reaches 256 items with the
// schema's candidate count.
func WhatIfAdvisor(env *Env, queries int) (*WhatIfResult, error) {
	if queries <= 0 {
		queries = 32
	}
	ctx := context.Background()

	// Estimated cardinalities: advise-time plans are never executed.
	est, err := trainWhatIf(env, encoding.CardEstimated)
	if err != nil {
		return nil, err
	}
	qs, err := query.Synthetic(env.EvalDB, queries, env.Cfg.Seed+880_000)
	if err != nil {
		return nil, err
	}
	cands, err := whatif.Enumerate(env.EvalDB.Schema, qs, nil, 0)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("experiments: whatif workload proposed no candidates")
	}
	variants := whatif.Variants(cands)

	st := stats.Collect(env.EvalDB, stats.DefaultBuckets, stats.DefaultMCVs)
	stmts := whatif.Statements(qs)

	// Every sweep is cold: it plans, encodes and prices the workload.
	const reps = 3
	var rep *whatif.Report
	start := time.Now()
	for i := 0; i < reps; i++ {
		if rep, err = whatif.Sweep(ctx, env.EvalDB, st, est, stmts, variants); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	res := &WhatIfResult{
		Workload:       len(stmts),
		Candidates:     len(cands),
		Items:          rep.Items,
		NsPerItem:      float64(elapsed.Nanoseconds()) / float64(reps*rep.Items),
		Recommendation: rep.Recommendation,
	}

	actual, err := ExecuteWorkload(env.EvalDB, st, qs, nil)
	if err != nil {
		return nil, err
	}
	res.Baseline = WhatIfOutcome{Name: rep.Baseline.Name, PredictedSec: rep.Baseline.TotalSec, ActualSec: actual}
	for _, vr := range rep.Variants {
		if vr.Errors > 0 {
			return nil, fmt.Errorf("experiments: whatif variant %s had %d pricing errors", vr.Name, vr.Errors)
		}
		if actual, err = ExecuteWorkload(env.EvalDB, st, qs, vr.Indexes); err != nil {
			return nil, err
		}
		res.Variants = append(res.Variants, WhatIfOutcome{Name: vr.Name, PredictedSec: vr.TotalSec, ActualSec: actual})
	}

	best := 0
	for i, o := range res.Variants {
		if o.ActualSec < res.Variants[best].ActualSec {
			best = i
		}
	}
	res.Top1Agrees = best == 0
	res.RankCorr = spearman(res.Variants)
	return res, nil
}

// ExecuteWorkload is the what-if advisor's executed ground truth: plan
// qs under the hypothetical index set, actually execute each plan
// (materializing the indexes it uses) and sum the simulated noiseless
// runtimes. Execution only ever adds index structures — plan choice
// depends on each optimizer's advice set, never on what storage has
// materialized — so truth runs over one database cannot leak into one
// another.
func ExecuteWorkload(db *storage.Database, st *stats.DBStats, qs []*query.Query, indexes []string) (float64, error) {
	idx := optimizer.IndexSet{}
	for _, k := range indexes {
		idx[k] = true
	}
	opt := optimizer.New(db.Schema, st, idx, optimizer.DefaultCostParams())
	ex := engine.New(db, engine.Config{})
	sim := hwsim.New(hwsim.DefaultProfile(), 1)
	total := 0.0
	for _, q := range qs {
		p, err := opt.Plan(q)
		if err != nil {
			return 0, err
		}
		if _, err := ex.Execute(p); err != nil {
			return 0, err
		}
		total += sim.RuntimeNoiseless(p)
	}
	return total, nil
}

// spearman computes the Spearman rank correlation between the predicted
// order (the slice order) and the executed order of the outcomes.
func spearman(outcomes []WhatIfOutcome) float64 {
	n := len(outcomes)
	if n < 2 {
		return 1
	}
	byActual := make([]int, n)
	for i := range byActual {
		byActual[i] = i
	}
	sort.SliceStable(byActual, func(a, b int) bool {
		return outcomes[byActual[a]].ActualSec < outcomes[byActual[b]].ActualSec
	})
	actualRank := make([]int, n)
	for rank, i := range byActual {
		actualRank[i] = rank
	}
	sum := 0.0
	for predRank, rank := range actualRank {
		d := float64(predRank - rank)
		sum += d * d
	}
	return 1 - 6*sum/float64(n*(n*n-1))
}

// Render prints the predicted-vs-executed ranking table.
func (r *WhatIfResult) Render() string {
	var b strings.Builder
	b.WriteString("== what-if advisor: fused sweep vs executed ground truth (unseen db) ==\n")
	fmt.Fprintf(&b, "sweep: %d statements x %d candidates (+baseline) = %d items, %.0f ns/item\n",
		r.Workload, r.Candidates, r.Items, r.NsPerItem)
	fmt.Fprintf(&b, "%-34s %14s %14s\n", "variant", "predicted (s)", "executed (s)")
	fmt.Fprintf(&b, "%-34s %14.2f %14.2f\n", "(baseline)", r.Baseline.PredictedSec, r.Baseline.ActualSec)
	for _, o := range r.Variants {
		fmt.Fprintf(&b, "%-34s %14.2f %14.2f\n", o.Name, o.PredictedSec, o.ActualSec)
	}
	rec := r.Recommendation
	if rec == "" {
		rec = "(keep baseline)"
	}
	fmt.Fprintf(&b, "recommendation: %s   top-1 agrees: %v   rank correlation: %.2f\n",
		rec, r.Top1Agrees, r.RankCorr)
	return b.String()
}
