package whatif

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sort"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// sweepCrossProduct is the sweep this package shipped before it learned
// which indexes a statement's plan can depend on, kept as the oracle (the
// house method: nn/reference_test.go): it plans, encodes and prices every
// (variant, statement) pair, each under the variant's full index set,
// with no cache and no sharing. Sweep's report must marshal to the same
// bytes.
func sweepCrossProduct(ctx context.Context, db *storage.Database, st *stats.DBStats, est costmodel.Estimator, stmts []Statement, variants []Variant) (*Report, error) {
	if len(stmts) == 0 {
		return nil, ErrEmptyWorkload
	}
	if len(variants) == 0 {
		return nil, ErrNoVariants
	}

	all := make([]Variant, 0, len(variants)+1)
	all = append(all, Variant{})
	all = append(all, variants...)

	results := make([]VariantResult, len(all))
	var ins []costmodel.PlanInput
	type slot struct{ v, s int }
	var pos []slot
	for vi, v := range all {
		opt := optimizer.New(db.Schema, st, v.indexSet(), optimizer.DefaultCostParams())
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
			p, err := opt.Plan(stmt.Query)
			if err != nil {
				qr.Error = err.Error()
				results[vi].Errors++
				continue
			}
			ins = append(ins, costmodel.PlanInput{
				DB:            db,
				Query:         stmt.Query,
				Plan:          p,
				OptimizerCost: optimizer.TotalCost(p),
				Enc:           costmodel.NewEncodedPlan(),
			})
			pos = append(pos, slot{vi, si})
		}
	}

	preds, err := est.PredictBatch(ctx, ins)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		preds = make([]float64, len(ins))
		for j := range ins {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			v, perr := est.PredictBatch(ctx, ins[j:j+1])
			if perr != nil {
				qr := &results[pos[j].v].Queries[pos[j].s]
				qr.Error = perr.Error()
				results[pos[j].v].Errors++
				preds[j] = -1
				continue
			}
			preds[j] = v[0]
		}
	}
	for j, p := range preds {
		if p < 0 {
			continue
		}
		results[pos[j].v].Queries[pos[j].s].PredictedSec = p
	}

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
		Items:    len(ins),
	}
	if len(ranked) > 0 && ranked[0].TotalSec < results[0].TotalSec {
		r.Recommendation = ranked[0].Name
	}
	return r, nil
}

var errPoisoned = errors.New("poisoned statement")

// TestSweepMatchesCrossProduct: on generated workloads — single-index
// variants from the enumerator, multi-index variants (with a duplicate
// and an index no statement touches), and a poisoned statement — the
// sweep's report marshals to the bytes the cross-product sweep's does,
// cold and again warm.
func TestSweepMatchesCrossProduct(t *testing.T) {
	db, st, _ := fixture(t)
	for seed := int64(1); seed <= 6; seed++ {
		qs, err := query.NewGenerator(db, query.DefaultGenConfig(), seed).Generate(16)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := Enumerate(db.Schema, qs, nil, 16)
		if err != nil {
			t.Fatal(err)
		}
		var variants []Variant
		var allIdx []string
		for _, cand := range cands {
			variants = append(variants, Variant{Name: cand.Index, Indexes: []string{cand.Index}})
			allIdx = append(allIdx, cand.Index)
		}
		variants = append(variants,
			Variant{Indexes: allIdx},
			Variant{Name: "pair+dup", Indexes: []string{allIdx[len(allIdx)-1], allIdx[0], allIdx[0], "title.no_such_column"}},
		)
		stmts := Statements(qs)
		poisoned := stmts[int(seed)%len(stmts)].Query
		ests := map[string]func() *fakeEst{
			"healthy": func() *fakeEst { return &fakeEst{} },
			"poisoned": func() *fakeEst {
				return &fakeEst{poison: func(in costmodel.PlanInput) error {
					if in.Query == poisoned {
						return errPoisoned
					}
					return nil
				}}
			},
		}
		for name, mk := range ests {
			want, err := sweepCrossProduct(context.Background(), db, st, mk(), stmts, variants)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"cold", "warm"} {
				got, err := Sweep(context.Background(), db, st, mk(), stmts, variants)
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("seed %d %s %s: report differs from the cross-product sweep's\n got %s\nwant %s", seed, name, pass, gotJSON, wantJSON)
				}
			}
		}
	}
}
