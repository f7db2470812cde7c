package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/zeroshot-db/zeroshot/internal/experiments"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// runAdvise is the CLI form of POST /v1/whatif: build the serving
// database, load the model, run one what-if sweep over the workload,
// and print the candidates ranked by predicted workload runtime. It
// drives the exact serving path the HTTP endpoint uses
// (serving.Session.WhatIf), so the two surfaces cannot diverge.
func runAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	modelPath := fs.String("model", "", "saved cost model (required; train with estimated cardinalities)")
	dbKind := fs.String("db", "imdb", "database to advise: imdb, ssb or tpch")
	dbScale := fs.Float64("dbscale", 0.1, "database scale")
	workload := fs.String("workload", "", "workload file: one SQL statement per line, # and -- comments ignored (default: a generated synthetic workload)")
	candidates := fs.String("candidates", "", "comma-separated explicit index candidates (table.column); default: enumerate from foreign keys and workload filters")
	maxCand := fs.Int("max-candidates", 0, fmt.Sprintf("candidate cap (default %d)", whatif.DefaultMaxCandidates))
	genQueries := fs.Int("gen-queries", 40, "generated workload size when -workload is not given")
	seed := fs.Int64("seed", 777, "generated workload seed")
	verify := fs.Bool("verify", false, "execute the workload under each recommended variant and print actual simulated runtimes next to the predictions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("advise: -model is required")
	}
	models, err := loadModels(*modelPath)
	if err != nil {
		return err
	}
	db, err := buildDatabase(*dbKind, *dbScale)
	if err != nil {
		return err
	}
	sess, err := assembleSession(serving.Config{}, []string{*dbKind}, []*storage.Database{db}, models)
	if err != nil {
		return err
	}
	defer sess.Close()

	var sqls []string
	if *workload != "" {
		sqls, err = readWorkload(*workload)
	} else {
		sqls, err = generateWorkload(db, *genQueries, *seed)
	}
	if err != nil {
		return err
	}

	req := whatif.Request{SQL: sqls, MaxCandidates: *maxCand}
	for _, c := range strings.Split(*candidates, ",") {
		if c = strings.TrimSpace(c); c != "" {
			req.Candidates = append(req.Candidates, c)
		}
	}

	rep, err := sess.WhatIf(context.Background(), *dbKind, "", req)
	if err != nil {
		return err
	}

	actuals := map[string]float64{}
	if *verify {
		actuals, err = verifyVariants(db, sqls, rep)
		if err != nil {
			return err
		}
	}

	fmt.Printf("what-if sweep on %s: %d statements x %d candidates (%d plans priced in one fused batch)\n\n",
		rep.Database, len(sqls), len(rep.Candidates), rep.Items)
	printVariant := func(v whatif.VariantResult) {
		line := fmt.Sprintf("  %-36s predicted %9.3fs", v.Name, v.TotalSec)
		if v.SpeedupX > 0 && v.Name != "baseline" {
			line += fmt.Sprintf("   speedup %5.2fx", v.SpeedupX)
		}
		if *verify {
			line += fmt.Sprintf("   actual %9.3fs", actuals[v.Name])
		}
		if v.Errors > 0 {
			line += fmt.Sprintf("   (%d statement error(s))", v.Errors)
		}
		fmt.Println(line)
	}
	printVariant(rep.Baseline)
	for _, v := range rep.Variants {
		printVariant(v)
	}
	if rep.Recommendation != "" {
		fmt.Printf("\nadvisor recommends: CREATE INDEX ON %s\n", rep.Recommendation)
	} else {
		fmt.Println("\nadvisor recommends: keep the baseline (no candidate beats it)")
	}
	return nil
}

// readWorkload loads a workload file: one statement per line, blank
// lines and #/-- comments skipped, trailing semicolons stripped.
func readWorkload(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "--") {
			continue
		}
		out = append(out, strings.TrimSuffix(line, ";"))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("advise: workload file %s contains no statements", path)
	}
	return out, nil
}

// generateWorkload draws a synthetic tuning workload against the
// database.
func generateWorkload(db *storage.Database, n int, seed int64) ([]string, error) {
	qs, err := query.Synthetic(db, n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.SQL()
	}
	return out, nil
}

// verifyVariants executes the workload under the baseline and each
// recommended variant (hypothetical indexes actually materialized) and
// returns each variant's simulated actual runtime — the advisor's
// ground truth, computed exactly as E10 computes it.
func verifyVariants(db *storage.Database, sqls []string, rep *whatif.Report) (map[string]float64, error) {
	qs := make([]*query.Query, len(sqls))
	for i, sql := range sqls {
		q, err := sqlparse.Parse(sql, db.Schema)
		if err != nil {
			return nil, fmt.Errorf("advise: verify statement %d: %w", i, err)
		}
		qs[i] = q
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	out := map[string]float64{}
	for _, v := range append([]whatif.VariantResult{rep.Baseline}, rep.Variants...) {
		actual, err := experiments.ExecuteWorkload(db, st, qs, v.Indexes)
		if err != nil {
			return nil, err
		}
		out[v.Name] = actual
	}
	return out, nil
}
