// Learned query optimization (Section 4.2 of the paper, the "naïve
// approach"): use the zero-shot cost model — trained on other databases —
// to evaluate candidate join subplans inside the optimizer's dynamic
// programming on an unseen database, and compare the resulting plans
// against the analytical cost model's plans by executing both.
//
// Run with: go run ./examples/joinorder
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/engine"
	"github.com/zeroshot-db/zeroshot/internal/hwsim"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/zeroshot"
)

func main() {
	// Train the zero-shot cost model on other databases.
	corpus, err := datagen.TrainingCorpus(4, 17, datagen.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	var samples []zeroshot.Sample
	for i, db := range corpus {
		recs, err := collect.Run(db, collect.Options{Queries: 140, Seed: int64(900 * (i + 1))})
		if err != nil {
			log.Fatal(err)
		}
		enc := encoding.NewPlanEncoder(db.Schema, encoding.CardEstimated)
		for _, r := range recs {
			g, err := enc.Encode(r.Plan)
			if err != nil {
				log.Fatal(err)
			}
			samples = append(samples, zeroshot.Sample{Graph: g, RuntimeSec: r.RuntimeSec})
		}
	}
	cfg := zeroshot.DefaultConfig()
	cfg.Hidden = 24
	cfg.Epochs = 14
	model := zeroshot.New(cfg)
	if _, err := model.Train(context.Background(), samples); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained zero-shot cost model on %d plans\n\n", len(samples))

	// Unseen database, multi-join workload.
	db, err := datagen.IMDBLike(0.08)
	if err != nil {
		log.Fatal(err)
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	enc := encoding.NewPlanEncoder(db.Schema, encoding.CardEstimated)
	ex := engine.New(db, engine.Config{})
	sim := hwsim.New(hwsim.DefaultProfile(), 5)

	// Learned cost function for the DP: the model's predicted runtime of
	// the candidate subplan.
	learnedCost := func(n *plan.Node) float64 {
		g, err := enc.Encode(n)
		if err != nil {
			return 1e18
		}
		return model.PredictBatch([]*encoding.Graph{g})[0]
	}

	qs, err := query.JOBLight(db, 30, 2024)
	if err != nil {
		log.Fatal(err)
	}
	var analyticalTotal, guidedTotal float64
	differ := 0
	for _, q := range qs {
		if len(q.Tables) < 3 {
			continue // join ordering only matters with 3+ tables
		}
		pAnalytical, err := opt.Plan(q)
		if err != nil {
			log.Fatal(err)
		}
		pGuided, err := opt.PlanWith(q, learnedCost)
		if err != nil {
			log.Fatal(err)
		}
		if pAnalytical.Explain() != pGuided.Explain() {
			differ++
		}
		if _, err := ex.Execute(pAnalytical); err != nil {
			log.Fatal(err)
		}
		if _, err := ex.Execute(pGuided); err != nil {
			log.Fatal(err)
		}
		analyticalTotal += sim.RuntimeNoiseless(pAnalytical)
		guidedTotal += sim.RuntimeNoiseless(pGuided)
	}
	fmt.Printf("plans differing between analytical and learned cost: %d\n", differ)
	fmt.Printf("total workload runtime, analytical optimizer: %8.2fs\n", analyticalTotal)
	fmt.Printf("total workload runtime, zero-shot guided:     %8.2fs\n", guidedTotal)
	fmt.Println("\n(the learned model steers join ordering on a database it never saw;")
	fmt.Println(" with a well-calibrated analytical model both should be close)")
}
