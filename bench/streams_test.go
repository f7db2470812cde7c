package main

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// lightEnv has the generated databases and a stand-in ground truth, which
// is all that request generation reads.
func lightEnv(t *testing.T) *env {
	t.Helper()
	e := &env{dbs: map[string]*storage.Database{}}
	for _, kind := range []string{"imdb", "ssb", "tpch"} {
		db, err := buildDatabase(kind)
		if err != nil {
			t.Fatal(err)
		}
		e.dbs[kind] = db
	}
	for i, sql := range pool(e.dbs["imdb"], truthSize, truthSeed) {
		e.truth = append(e.truth, truthRec{SQL: sql, RuntimeSec: 0.001 * float64(i+1)})
	}
	return e
}

var allWorkloads = []string{"hot-singles", "cold-singles", "warm-batch", "whatif-sweep", "routed-singles", "fewshot-cycle"}

func TestStreamsAreFixedBySeed(t *testing.T) {
	e := lightEnv(t)
	for _, name := range allWorkloads {
		a, err := streamDigest(e, name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamDigest(e, name, 1)
		c, _ := streamDigest(e, name, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave two streams", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
	}
}

func TestFreshStatementsNeverRepeat(t *testing.T) {
	e := lightEnv(t)
	d := newDistinct(e.dbs["imdb"], 9)
	d.fill(100)
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		fp := costmodel.Fingerprint(d.take())
		if seen[fp] {
			t.Fatalf("statement %d repeats plan-cache key %q", i, fp)
		}
		seen[fp] = true
	}
}

func TestColdStreamIsFreshAndRoundRobin(t *testing.T) {
	e := lightEnv(t)
	w, err := newHTTPWorkload(e, "cold-singles", 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		r := w.stream.next()
		if want := []string{"imdb", "ssb", "tpch"}[i%3]; r.db != want {
			t.Fatalf("request %d goes to %s, want %s", i, r.db, want)
		}
		key := r.db + "\x00" + costmodel.Fingerprint(r.sqls[0])
		if seen[key] {
			t.Fatalf("request %d was seen before: %s", i, r.sqls[0])
		}
		seen[key] = true
	}
}

func TestPoolsIgnoreTheSeed(t *testing.T) {
	e := lightEnv(t)
	a, b := pool(e.dbs["imdb"], hotPoolSize, hotPoolSeed), pool(e.dbs["imdb"], hotPoolSize, hotPoolSeed)
	keys := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pool statement %d differs between two builds", i)
		}
		keys[costmodel.Fingerprint(a[i])] = true
	}
	if len(keys) != hotPoolSize {
		t.Errorf("pool holds %d distinct plan-cache keys, want %d", len(keys), hotPoolSize)
	}
	// Two seeds draw from the same pool, in a different order.
	w1, _ := newHTTPWorkload(e, "hot-singles", 1, 0)
	w2, _ := newHTTPWorkload(e, "hot-singles", 2, 0)
	same := true
	for i := 0; i < 200; i++ {
		r1, r2 := w1.stream.next(), w2.stream.next()
		if !keys[costmodel.Fingerprint(r1.sqls[0])] || !keys[costmodel.Fingerprint(r2.sqls[0])] {
			t.Fatalf("draw %d left the pool", i)
		}
		same = same && r1.sqls[0] == r2.sqls[0]
	}
	if same {
		t.Error("seeds 1 and 2 drew the same 200 statements")
	}
}

func TestZipfIsSkewedAndDeterministic(t *testing.T) {
	a, b := zipf(rand.New(rand.NewSource(4)), 512), zipf(rand.New(rand.NewSource(4)), 512)
	counts := make([]int, 512)
	for i := 0; i < 20000; i++ {
		x, y := a(), b()
		if x != y {
			t.Fatalf("draw %d: %d vs %d from the same seed", i, x, y)
		}
		counts[x]++
	}
	if counts[0] < 5*counts[20] || counts[0] < 1000 {
		t.Errorf("rank 0 drawn %d times, rank 20 %d: not a hot working set", counts[0], counts[20])
	}
}

func TestRequestBodies(t *testing.T) {
	r := request{kind: opWhatIf, db: "imdb", sqls: []string{"SELECT COUNT(*) FROM title"}}
	if got, want := string(r.body()), fmt.Sprintf(`{"db":"imdb","sql":["SELECT COUNT(*) FROM title"],"max_candidates":%d}`, whatIfCandidates); got != want {
		t.Errorf("whatif body %s, want %s", got, want)
	}
	r.kind = opPredict
	if got, want := string(r.body()), `{"db":"imdb","sql":"SELECT COUNT(*) FROM title"}`; got != want || r.path() != "/v1/predict" {
		t.Errorf("predict %s body %s, want %s", r.path(), got, want)
	}
}
