// Few-shot adaptation (Section 4.3 of the paper): a pretrained zero-shot
// model already predicts well on an unseen database; fine-tuning it with a
// handful of queries from that database makes it better — with far fewer
// queries than a workload-driven model trained from scratch would need.
//
// Run with: go run ./examples/fewshot
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/zeroshot"
)

func main() {
	// Pretrain across other databases.
	corpus, err := datagen.TrainingCorpus(4, 13, datagen.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	var samples []zeroshot.Sample
	for i, db := range corpus {
		samples = append(samples, gather(db, 140, int64(500*(i+1)))...)
	}
	cfg := zeroshot.DefaultConfig()
	cfg.Hidden = 24
	cfg.Epochs = 14
	model := zeroshot.New(cfg)
	ctx := context.Background()
	if _, err := model.Train(ctx, samples); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pretrained zero-shot model on %d plans from %d databases\n", len(samples), len(corpus))

	// The unseen target database.
	imdb, err := datagen.IMDBLike(0.08)
	if err != nil {
		log.Fatal(err)
	}
	target := gather(imdb, 90, 31337)
	fewShotSet, testSet := target[:30], target[30:]
	var graphs []*encoding.Graph
	var actuals []float64
	for _, s := range testSet {
		graphs = append(graphs, s.Graph)
		actuals = append(actuals, s.RuntimeSec)
	}

	eval := func(label string) {
		sum, err := metrics.Summarize(model.PredictBatch(graphs), actuals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s %v\n", label, sum)
	}

	eval("zero-shot (no queries on target db):")
	if _, err := model.FineTune(ctx, fewShotSet, 10, 0); err != nil {
		log.Fatal(err)
	}
	eval("few-shot  (30 queries on target db):")
	fmt.Println("\na workload-driven model would need thousands of queries for this accuracy")
}

func gather(db *storage.Database, n int, seed int64) []zeroshot.Sample {
	recs, err := collect.Run(db, collect.Options{Queries: n, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	enc := encoding.NewPlanEncoder(db.Schema, encoding.CardExact)
	out := make([]zeroshot.Sample, 0, len(recs))
	for _, r := range recs {
		g, err := enc.Encode(r.Plan)
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, zeroshot.Sample{Graph: g, RuntimeSec: r.RuntimeSec})
	}
	return out
}
