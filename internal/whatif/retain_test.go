package whatif

import (
	"context"
	"runtime"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/query"
)

// TestSweepRetainsNothing pins that a sweep keeps no plan once its
// report is built. It runs 64 sweeps over one database, each over 16
// distinct generated statements and every candidate they enumerate, and
// compares HeapInuse, read after a GC, before and after them. A sweep
// that kept each distinct plan would grow by thousands of
// query-and-plan pairs, megabytes; the ceiling leaves room only for the
// heap's own noise.
func TestSweepRetainsNothing(t *testing.T) {
	const sweeps, perSweep, ceiling = 64, 16, 256 << 10
	db, st, _ := fixture(t)
	gen, err := query.NewGenerator(db, query.DefaultGenConfig(), 17).Generate(2 * sweeps * perSweep)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	seen := map[string]bool{}
	for _, q := range gen {
		if sql := q.SQL(); !seen[sql] {
			seen[sql] = true
			qs = append(qs, q)
		}
	}
	if len(qs) < sweeps*perSweep {
		t.Fatalf("generator drew %d distinct statements, want %d", len(qs), sweeps*perSweep)
	}
	type job struct {
		stmts    []Statement
		variants []Variant
	}
	jobs := make([]job, sweeps)
	for i := range jobs {
		batch := qs[i*perSweep : (i+1)*perSweep]
		cands, err := Enumerate(db.Schema, batch, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{Statements(batch), Variants(cands)}
	}
	gen, seen = nil, nil
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	before := heapInuse()
	planned := int64(0)
	for _, j := range jobs {
		est := &fakeEst{}
		if _, err := Sweep(context.Background(), db, st, est, j.stmts, j.variants); err != nil {
			t.Fatal(err)
		}
		planned += est.batchMax.Load()
	}
	after := heapInuse()
	runtime.KeepAlive(st)
	runtime.KeepAlive(jobs)

	grew := int64(after) - int64(before)
	t.Logf("%d sweeps priced %d distinct plans; HeapInuse grew %d bytes", sweeps, planned, grew)
	if grew > ceiling {
		t.Fatalf("%d sweeps left HeapInuse %d bytes larger, want <= %d", sweeps, grew, ceiling)
	}
}
