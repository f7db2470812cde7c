// Index advisor: the paper's Section 4.1 "What-If" mode. A zero-shot cost
// model trained on other databases (with and without random indexes)
// predicts how a workload's runtime on an UNSEEN database would change if
// a candidate index existed — and ranks the candidates without executing
// anything. The prediction side runs through the internal/whatif
// subsystem (the same sweep `zsdb advise` and POST /v1/whatif serve): the
// whole (candidate × query) cross product is priced in ONE fused batch.
// The example then verifies the ranking by actually building the indexes
// and executing the workload.
//
// Run with: go run ./examples/indexadvisor
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/experiments"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

func main() {
	model := trainWhatIfModel()

	// The unseen database and a workload we want to speed up.
	db, err := datagen.IMDBLike(0.08)
	if err != nil {
		log.Fatal(err)
	}

	// Candidate indexes: FK join columns plus frequently filtered columns.
	candidates := []string{
		"movie_companies.movie_id",
		"cast_info.movie_id",
		"movie_info.movie_id",
		"movie_keyword.movie_id",
		"title.production_year",
		"movie_info_idx.rating",
	}

	// A tuning workload that actually touches the candidate columns: keep
	// generated queries that filter at least one candidate (an advisor is
	// always tuned for a concrete workload).
	workload := targetedWorkload(db, candidates, 40)

	// The what-if sweep: validate the candidates, overlay each as a
	// hypothetical variant on a copy-on-write catalog, and price every
	// (variant × query) pair in one fused prediction batch. Nothing here
	// executes a query or mutates the database.
	cands, err := whatif.Enumerate(db.Schema, workload, candidates, 0)
	if err != nil {
		log.Fatal(err)
	}
	cat := whatif.NewCatalog(db, nil, optimizer.DefaultCostParams(), 0)
	rep, err := cat.Sweep(context.Background(), model, whatif.Statements(workload), whatif.Variants(cands))
	if err != nil {
		log.Fatal(err)
	}

	// The ground truth: execute the workload with each variant's indexes
	// actually materialized (the same loop E10 and `zsdb advise -verify`
	// run).
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	fmt.Println("predicted workload runtime under each hypothetical index (what-if):")
	for _, v := range append([]whatif.VariantResult{rep.Baseline}, rep.Variants...) {
		actual, err := experiments.ExecuteWorkload(db, st, workload, v.Indexes)
		if err != nil {
			log.Fatal(err)
		}
		name := v.Name
		if len(v.Indexes) == 0 {
			name = "(no index)"
		}
		fmt.Printf("  %-32s predicted %8.2fs   actual %8.2fs\n", name, v.TotalSec, actual)
	}
	if rep.Recommendation != "" {
		fmt.Printf("\nadvisor recommends: CREATE INDEX ON %s\n", rep.Recommendation)
	} else {
		fmt.Println("\nadvisor recommends: keep the baseline (no candidate helps)")
	}
	fmt.Println("(predictions come from a model that never saw this database)")
}

// targetedWorkload draws synthetic queries and keeps those filtering at
// least one candidate column.
func targetedWorkload(db *storage.Database, candidates []string, n int) []*query.Query {
	isCandidate := map[string]bool{}
	for _, c := range candidates {
		isCandidate[c] = true
	}
	gen := query.NewGenerator(db, query.GenConfig{
		MaxTables: 3, MaxFilters: 3, MaxAggregates: 1, RangeProb: 0.5,
	}, 777)
	var out []*query.Query
	for len(out) < n {
		qs, err := gen.Generate(50)
		if err != nil {
			log.Fatal(err)
		}
		for _, q := range qs {
			if len(out) >= n {
				break
			}
			for _, f := range q.Filters {
				if isCandidate[f.Col.String()] {
					out = append(out, q)
					break
				}
			}
		}
	}
	return out
}

// trainWhatIfModel trains a zero-shot estimator on plain and index
// workloads of three synthetic databases, so it learns how index scans
// change runtimes.
func trainWhatIfModel() costmodel.Estimator {
	corpus, err := datagen.TrainingCorpus(3, 21, datagen.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	var samples []costmodel.Sample
	for i, db := range corpus {
		for variant, idx := range map[int64]optimizer.IndexSet{
			0: nil,
			1: collect.RandomIndexes(db, int64(i+50), 0.8, 0.3),
		} {
			recs, err := collect.Run(db, collect.Options{
				Queries: 120,
				Seed:    int64(1000*(i+1)) + variant,
				Indexes: idx,
			})
			if err != nil {
				log.Fatal(err)
			}
			samples = append(samples, costmodel.FromRecords(db, recs)...)
		}
	}
	est, err := costmodel.New(costmodel.NameZeroShot, costmodel.Options{
		Hidden: 24, Epochs: 14, Seed: 1, Card: encoding.CardEstimated,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := est.Fit(context.Background(), samples); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained what-if model on %d plans from 3 other databases\n\n", len(samples))
	return est
}
