package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// The benchmark model and the ground truth are functions of the code
// alone, never of --seed, so accuracy is comparable across runs: one
// zero-shot model trained on synthetic databases only (imdb, ssb and tpch
// stay unseen until serve time), and one set of executed imdb queries with
// their simulated runtimes.
const (
	modelSeed    = 1
	modelDBs     = 4
	modelQueries = 150

	dbScale = 0.1 // `zsdb serve -dbscale` default; the reference uses the same

	truthSeed = 4242
	truthSize = 640
	// truthMaxIntermediate skips the few generated queries whose execution
	// dominates collection time (36 s instead of 4 s for the set).
	truthMaxIntermediate = 200_000
)

// truthRec is one executed query: what a database would report after
// running the statement.
type truthRec struct {
	SQL        string  `json:"sql"`
	RuntimeSec float64 `json:"runtime_sec"`
}

// env is what every run of one checkout shares. Everything under buildDir
// is derived from the source tree and reused by later runs.
type env struct {
	root     string
	buildDir string
	outDir   string
	zsdb     string
	model    string
	buildS   float64
	host     hostInfo
	spec     *benchSpec
	dbs      map[string]*storage.Database
	truth    []truthRec
}

// prepare builds the program under test and the shared artefacts.
func prepare(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	e := &env{
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		spec:     spec,
		dbs:      map[string]*storage.Database{},
	}
	e.outDir = filepath.Join(e.buildDir, "out")
	e.zsdb = filepath.Join(e.buildDir, "bin", "zsdb")
	e.model = filepath.Join(e.buildDir, "data", "zeroshot.gob")
	for _, dir := range []string{e.outDir, filepath.Dir(e.zsdb), filepath.Dir(e.model)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	e.host = probeHost(root)

	start := time.Now()
	build := exec.Command("go", "build", "-o", e.zsdb, "./cmd/zsdb")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/zsdb: %w\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()

	for _, kind := range []string{"imdb", "ssb", "tpch"} {
		if e.dbs[kind], err = buildDatabase(kind); err != nil {
			return nil, err
		}
	}
	if _, err := os.Stat(e.model); err != nil {
		fmt.Fprintln(os.Stderr, "bench: training the benchmark model (once per checkout)...")
		if err := trainModel(e.model); err != nil {
			return nil, fmt.Errorf("train benchmark model: %w", err)
		}
	}
	truthPath := filepath.Join(e.buildDir, "data", "truth-imdb.json")
	if e.truth, err = loadTruth(truthPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench: executing the ground-truth queries (once per checkout)...")
		if e.truth, err = collectTruth(e.dbs["imdb"], truthPath); err != nil {
			return nil, fmt.Errorf("collect ground truth: %w", err)
		}
	}
	return e, nil
}

// buildDatabase mirrors `zsdb serve`'s -databases kinds: generation is
// deterministic, so the in-process reference sees the same data the
// children serve.
func buildDatabase(kind string) (*storage.Database, error) {
	switch kind {
	case "imdb":
		return datagen.IMDBLike(dbScale)
	case "ssb":
		return datagen.SSBLike(dbScale)
	case "tpch":
		return datagen.TPCHLike(dbScale)
	}
	return nil, fmt.Errorf("unknown database kind %q", kind)
}

// trainModel does what `zsdb train -estimator zeroshot -card estimated
// -dbs 4 -queries 150` does and saves the result atomically.
func trainModel(path string) error {
	est, err := costmodel.New(costmodel.NameZeroShot, costmodel.Options{Seed: modelSeed, Card: encoding.CardEstimated})
	if err != nil {
		return err
	}
	corpus, err := datagen.TrainingCorpus(modelDBs, modelSeed, datagen.DefaultConfig())
	if err != nil {
		return err
	}
	var samples []costmodel.Sample
	for i, db := range corpus {
		recs, err := collect.Run(db, collect.Options{Queries: modelQueries, Seed: modelSeed + int64(i*1000)})
		if err != nil {
			return err
		}
		samples = append(samples, costmodel.FromRecords(db, recs)...)
	}
	if _, err := est.Fit(context.Background(), samples); err != nil {
		return err
	}
	return writeAtomically(path, func(f *os.File) error { return costmodel.Save(f, est) })
}

func loadModel(path string) (costmodel.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return costmodel.Load(f)
}

func collectTruth(db *storage.Database, path string) ([]truthRec, error) {
	recs, err := collect.Run(db, collect.Options{Queries: truthSize, Seed: truthSeed, MaxIntermediate: truthMaxIntermediate})
	if err != nil {
		return nil, err
	}
	truth := make([]truthRec, len(recs))
	for i, r := range recs {
		truth[i] = truthRec{SQL: r.Query.SQL(), RuntimeSec: r.RuntimeSec}
	}
	err = writeAtomically(path, func(f *os.File) error { return json.NewEncoder(f).Encode(truth) })
	return truth, err
}

func loadTruth(path string) ([]truthRec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var truth []truthRec
	if err := json.Unmarshal(data, &truth); err != nil {
		return nil, err
	}
	if len(truth) != truthSize {
		return nil, fmt.Errorf("%s holds %d records, want %d", path, len(truth), truthSize)
	}
	return truth, nil
}

// writeAtomically writes through a temporary file so an interrupted run
// never leaves a half-written artefact for the next one to trust.
func writeAtomically(path string, write func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
