// Command zsdb is the experiment driver and model server for the
// zero-shot cost estimation reproduction. It regenerates every table and
// figure of the paper's evaluation, trains and evaluates any estimator in
// the costmodel registry, and serves saved models over HTTP.
//
// Usage:
//
//	zsdb figure3  [-scale small|full]      reproduce Figure 3 (E1+E2)
//	zsdb table1   [-scale small|full]      reproduce Table 1 (E3+E4)
//	zsdb dbsweep  [-scale small|full]      training-database-count sweep (E5)
//	zsdb fewshot  [-scale small|full]      few-shot vs from-scratch (E6)
//	zsdb ablation [-scale small|full]      ablations A1-A3
//	zsdb online   [-scale small|full]      online adaptation q-error curve (E7)
//	zsdb whatif   [-scale small|full]      advisor sweep vs executed truth (E10)
//	zsdb all      [-scale small|full]      everything above, in order
//	zsdb train    [-estimator zeroshot] [-card estimated] -out model.gob
//	                                       train a registry estimator and save it
//	zsdb eval     -model model.gob         evaluate a saved model on the unseen db
//	zsdb serve    -models m1.gob,m2.gob    HTTP prediction service (see below)
//	zsdb route    -backends h1:8080,h2:8080  consistent-hash router over serve nodes
//	zsdb bundle   <build|inspect|push|list|rollback>  model-bundle store operations
//	zsdb explain  -sql "SELECT ..."        plan, execute and explain a query
//	zsdb advise   -model m.gob -workload f what-if index advisor over a workload
//	zsdb doctor   [-addr url1,url2] [-o b.tgz]  collect a support bundle and diagnose it
//	zsdb doctor analyze -bundle b.tgz      re-run the diagnosis offline on a saved bundle
//	zsdb trace    [-addr url]              render sampled pipeline traces and the slow-query log
//	zsdb gendata  [-seed N]                print a generated schema (debugging)
//
// Saved model files are self-describing: eval, serve and explain
// reconstruct the right estimator from the file header via the costmodel
// registry — no architecture flags needed.
//
// zsdb serve hosts a serving.Session — a set of simulated databases
// behind one SQL→cost pipeline (parse → optimize → featurize → predict)
// with per-database plan caches and a scheduler that coalesces concurrent
// single predictions into adaptive micro-batches — over a JSON API:
//
//	GET  /healthz           liveness + model/database counts
//	GET  /v1/models         loaded models and attached databases
//	GET  /v1/databases      per-database schema + plan cache stats
//	GET  /v1/stats          uptime, stage latencies, hit rates, batching, generations
//	POST /v1/predict        {"db":"imdb","model":"zeroshot","sql":"SELECT ..."}
//	POST /v1/predict_batch  {"db":"imdb","model":"zeroshot","sql":["...", ...]}
//	POST /v1/whatif         {"db":"imdb","sql":["..."],"candidates":["t.col", ...]}
//	POST /v1/feedback       {"db":"imdb","fingerprint":"...","actual_runtime_sec":0.25}
//	GET  /v1/adapt/status   feedback windows, drift, swap counters (-adapt only)
//	GET  /v1/bundles        store revisions + per-replica distributor status (-bundle-dir only)
//	POST /v1/bundles        {"action":"refresh"} or {"action":"rollback","revision":N}
//	GET  /v1/debug/traces   sampled pipeline traces + the always-on slow-query log
//	GET  /v1/events?since=N control-plane event log (swaps, bundles, health, failovers)
//
// -trace-sample N records a full per-stage span trace (parse, optimize,
// featurize, encode, predict, plus scheduler batch attribution and
// router failover hops) for every Nth request; with sampling off the
// request path allocates nothing extra. -trace-slow keeps an always-on
// slow-query log regardless of sampling. -debug-addr starts
// net/http/pprof on a separate listener, never on the serving port.
// zsdb trace renders the trace rings; zsdb doctor snapshots every
// diagnostic endpoint into a gzip'd support bundle and runs pass/warn/
// fail analyzers over it (zsdb doctor analyze re-runs them offline).
//
// "db" and "model" may be omitted when exactly one is attached. Batch
// replies carry structured per-item errors: one malformed statement does
// not fail its batch. -databases imdb,ssb,tpch attaches several serving
// databases. The micro-batcher caps a coalesced batch at 64 statements
// and lets a queued single linger at most 500µs. SIGINT or SIGTERM
// drains in-flight requests and queued micro-batches before exiting.
//
// -adapt closes the loop between serving and training: observed
// runtimes POSTed to /v1/feedback join against the plan cache, a drift
// monitor watches the q-error, and a background worker fine-tunes a
// clone of the model on the feedback window — hot-swapping it in only
// when a shadow evaluation on held-out feedback improves. Predictions
// return a "fingerprint" field clients echo back with the runtime.
//
// -bundle-dir closes the remaining gap: an accepted fine-tune is local
// to the replica that ran it. With a bundle directory configured, every
// accepted swap is also published to a versioned model-bundle store
// (manifest + checksummed costmodel payload in one archive), and a
// per-replica distributor polls the store, verifies each new revision,
// and hot-swaps it in — so the whole fleet converges on the adapted
// model and a failover never serves a stale generation. POST
// /v1/bundles {"action":"rollback"} republishes a retained revision as
// the new head, rolling the fleet back durably; zsdb bundle exposes the
// same store operations offline (build, inspect, push, list, rollback).
//
// The serving layer scales out two ways, both powered by the same
// internal/cluster router. -replicas N turns one zsdb serve process
// into a sharded cluster of N mirrored in-process replicas: databases
// partition across replicas by consistent hashing (virtual nodes keep
// assignments stable as replicas come and go), each request lands on
// the replica owning its database — plan caches and adaptation windows
// stay replica-local — and a downed or slow replica's requests fail
// over along the ring with no request lost. zsdb route is the
// multi-process form of the same thing: a thin routing tier over
// remote zsdb serve backends (-backends host1:8080,host2:8080) with
// per-backend health probes, bounded-fanout aggregation of /v1/stats
// and /v1/databases, and GET /v1/cluster exposing ring ownership and
// replica health.
//
// Models destined for serving should be trained with estimated
// cardinalities (the train default): at serving time queries are planned
// but not executed, so exact cardinalities do not exist.
//
// The small scale finishes in CPU-minutes; full approaches the paper's
// setup (19 databases x 5000 queries) and takes hours.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/engine"
	"github.com/zeroshot-db/zeroshot/internal/experiments"
	"github.com/zeroshot-db/zeroshot/internal/hwsim"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2:]); err != nil {
		if err == errUnknownCommand {
			usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "zsdb:", err)
		os.Exit(1)
	}
}

// errUnknownCommand signals a dispatch failure (exit code 2, with usage).
var errUnknownCommand = fmt.Errorf("unknown command")

// experiment is one paper-evaluation command: run computes its result
// on a prepared environment and returns the rendered table.
type experiment struct {
	name string
	run  func(*experiments.Env) (string, error)
}

// experimentTable lists the evaluation commands in usage order; `zsdb
// all` runs every row on one environment.
var experimentTable = []experiment{
	{"figure3", func(env *experiments.Env) (string, error) { return rendered(experiments.Figure3(env)) }},
	{"table1", func(env *experiments.Env) (string, error) { return rendered(experiments.Table1(env)) }},
	{"dbsweep", func(env *experiments.Env) (string, error) { return rendered(experiments.DBCountSweep(env, nil)) }},
	{"fewshot", func(env *experiments.Env) (string, error) { return rendered(experiments.FewShot(env, nil)) }},
	{"ablation", func(env *experiments.Env) (string, error) { return rendered(experiments.Ablations(env)) }},
	{"online", func(env *experiments.Env) (string, error) { return rendered(experiments.OnlineAdaptation(env, 0, 0)) }},
	{"whatif", func(env *experiments.Env) (string, error) { return rendered(experiments.WhatIfAdvisor(env, 0)) }},
}

// rendered turns an experiment's (result, error) into its table.
func rendered[R interface{ Render() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// commands lists the tool commands in usage order.
var commands = []struct {
	name string
	run  func(args []string) error
}{
	{"train", runTrain},
	{"eval", runEval},
	{"serve", runServe},
	{"route", runRoute},
	{"bundle", runBundle},
	{"explain", runExplain},
	{"advise", runAdvise},
	{"doctor", runDoctor},
	{"trace", runTrace},
	{"gendata", runGendata},
}

// run dispatches one CLI invocation; it is the testable entry point.
func run(cmd string, args []string) error {
	if cmd == "all" {
		return runExperiments(args, experimentTable)
	}
	for i, e := range experimentTable {
		if e.name == cmd {
			return runExperiments(args, experimentTable[i:i+1])
		}
	}
	for _, c := range commands {
		if c.name == cmd {
			return c.run(args)
		}
	}
	return errUnknownCommand
}

func usage() {
	var names []string
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	names = append(names, "all")
	for _, c := range commands {
		names = append(names, c.name)
	}
	fmt.Fprintf(os.Stderr, "usage: zsdb <%s> [flags]\n", strings.Join(names, "|"))
}

// scaleConfig resolves -scale and -seed flags into an experiment config.
func scaleConfig(fs *flag.FlagSet, args []string) (experiments.Config, error) {
	scale := fs.String("scale", "small", "experiment scale: small or full")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return experiments.Config{}, err
	}
	var cfg experiments.Config
	switch *scale {
	case "small":
		cfg = experiments.SmallConfig()
	case "full":
		cfg = experiments.FullConfig()
	default:
		return cfg, fmt.Errorf("unknown scale %q", *scale)
	}
	cfg.Seed = *seed
	return cfg, nil
}

// parseCard resolves a -card flag value into a cardinality source.
func parseCard(s string) (encoding.CardSource, error) {
	switch s {
	case "estimated":
		return encoding.CardEstimated, nil
	case "exact":
		return encoding.CardExact, nil
	case "none":
		return encoding.CardNone, nil
	default:
		return 0, fmt.Errorf("unknown cardinality source %q (want estimated, exact or none)", s)
	}
}

// runExperiments parses -scale/-seed, prepares one environment and
// prints each row's table in order, a blank line between two.
func runExperiments(args []string, rows []experiment) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	cfg, err := scaleConfig(fs, args)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "preparing environment: %d train dbs x %d queries, eval %d queries/workload...\n",
		cfg.TrainDBs, cfg.QueriesPerDB, cfg.EvalQueries)
	env, err := experiments.Prepare(cfg)
	if err != nil {
		return err
	}
	for i, e := range rows {
		if i > 0 {
			fmt.Println()
		}
		out, err := e.run(env)
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	return nil
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	name := fs.String("estimator", costmodel.NameZeroShot,
		fmt.Sprintf("registry estimator to train (one of %v)", costmodel.Names()))
	card := fs.String("card", "estimated", "cardinality source for the graph encoding: estimated, exact or none")
	out := fs.String("out", "zeroshot-model.gob", "output model path")
	dbs := fs.Int("dbs", 8, "number of training databases")
	queries := fs.Int("queries", 300, "training queries per database")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cardSrc, err := parseCard(*card)
	if err != nil {
		return err
	}
	est, err := costmodel.New(*name, costmodel.Options{Seed: *seed, Card: cardSrc})
	if err != nil {
		return err
	}
	corpus, err := datagen.TrainingCorpus(*dbs, *seed, datagen.DefaultConfig())
	if err != nil {
		return err
	}
	var samples []costmodel.Sample
	for i, db := range corpus {
		recs, err := collect.Run(db, collect.Options{Queries: *queries, Seed: *seed + int64(i*1000)})
		if err != nil {
			return err
		}
		samples = append(samples, costmodel.FromRecords(db, recs)...)
		fmt.Fprintf(os.Stderr, "collected %s (%d/%d)\n", db.Schema.Name, i+1, *dbs)
	}
	report, err := est.Fit(context.Background(), samples)
	if err != nil {
		return err
	}
	if len(report.EpochLoss) > 0 {
		fmt.Fprintf(os.Stderr, "trained %s on %d samples; loss %.4f -> %.4f\n",
			est.Name(), report.Samples, report.EpochLoss[0], report.EpochLoss[len(report.EpochLoss)-1])
	} else {
		fmt.Fprintf(os.Stderr, "fitted %s on %d samples\n", est.Name(), report.Samples)
	}
	if report.WallTime > 0 {
		fmt.Fprintf(os.Stderr, "training wall-time %s (%.0f samples/s)\n",
			report.WallTime.Round(time.Millisecond), report.SamplesPerSec)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := costmodel.Save(f, est); err != nil {
		return err
	}
	fmt.Printf("saved %s model to %s\n", est.Name(), *out)
	return nil
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	modelPath := fs.String("model", "zeroshot-model.gob", "saved model path")
	n := fs.Int("queries", 200, "evaluation queries")
	scale := fs.Float64("dbscale", 0.1, "IMDB-like database scale")
	seed := fs.Int64("seed", 99, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	est, err := loadModelFile(*modelPath)
	if err != nil {
		return err
	}
	db, err := datagen.IMDBLike(*scale)
	if err != nil {
		return err
	}
	recs, err := collect.Run(db, collect.Options{Queries: *n, Seed: *seed})
	if err != nil {
		return err
	}
	samples := costmodel.FromRecords(db, recs)
	preds, err := est.PredictBatch(context.Background(), costmodel.Inputs(samples))
	if err != nil {
		return err
	}
	actuals := make([]float64, len(recs))
	for i, r := range recs {
		actuals[i] = r.RuntimeSec
	}
	sum, err := metrics.Summarize(preds, actuals)
	if err != nil {
		return err
	}
	fmt.Printf("%s on unseen %s (%d queries): %v\n", est.Name(), db.Schema.Name, len(recs), sum)
	return nil
}

// loadModelFile opens and reconstructs one self-describing model file.
func loadModelFile(path string) (costmodel.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	est, err := costmodel.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return est, nil
}

// runExplain parses a SQL query against the IMDB-like database, plans it
// (optionally under hypothetical indexes), executes it, and prints the
// annotated plan with the simulated runtime — like EXPLAIN ANALYZE.
func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	sqlText := fs.String("sql", "", "query to explain (required)")
	dbScale := fs.Float64("dbscale", 0.1, "IMDB-like database scale")
	indexes := fs.String("indexes", "", "comma-separated hypothetical indexes, e.g. movie_companies.movie_id,title.production_year")
	modelPath := fs.String("model", "", "optional saved cost model for a runtime prediction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sqlText == "" {
		return fmt.Errorf("explain: -sql is required")
	}
	db, err := datagen.IMDBLike(*dbScale)
	if err != nil {
		return err
	}
	q, err := sqlparse.Parse(*sqlText, db.Schema)
	if err != nil {
		return err
	}
	idx := optimizer.IndexSet{}
	if *indexes != "" {
		for _, k := range strings.Split(*indexes, ",") {
			idx[strings.TrimSpace(k)] = true
		}
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, idx, optimizer.DefaultCostParams())
	p, err := opt.Plan(q)
	if err != nil {
		return err
	}
	res, err := engine.New(db, engine.Config{}).Execute(p)
	if err != nil {
		return err
	}
	sim := hwsim.New(hwsim.DefaultProfile(), 1)
	fmt.Println(q.SQL())
	fmt.Print(p.Explain())
	fmt.Printf("rows: %d   optimizer cost: %.1f   simulated runtime: %.3fs\n",
		res.Rows, optimizer.TotalCost(p), sim.RuntimeNoiseless(p))
	if *modelPath != "" {
		est, err := loadModelFile(*modelPath)
		if err != nil {
			return err
		}
		pred, err := est.Predict(context.Background(), costmodel.PlanInput{
			DB: db, Query: q, Plan: p, OptimizerCost: optimizer.TotalCost(p),
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s predicted runtime: %.3fs\n", est.Name(), pred)
	}
	return nil
}

func runGendata(args []string) error {
	fs := flag.NewFlagSet("gendata", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := datagen.Generate(fmt.Sprintf("gen%d", *seed), *seed, datagen.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Print(db.Schema.String())
	return nil
}
