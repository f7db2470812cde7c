package hwsim

import (
	"math"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/engine"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
)

func executedPlan(t *testing.T, sql string) *plan.Node {
	t.Helper()
	db, err := datagen.IMDBLike(0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	q := &query.Query{
		Tables: []string{"title", "movie_companies"},
		Joins: []query.Join{{
			Left:  query.ColumnRef{Table: "movie_companies", Column: "movie_id"},
			Right: query.ColumnRef{Table: "title", Column: "id"},
		}},
		Aggregates: []query.Aggregate{{Func: query.AggCount}},
	}
	p, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.New(db, engine.Config{}).Execute(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRuntimePositiveAndDeterministic(t *testing.T) {
	p := executedPlan(t, "")
	sim := New(DefaultProfile(), 1)
	r1 := sim.RuntimeNoiseless(p)
	r2 := sim.RuntimeNoiseless(p)
	if r1 <= 0 {
		t.Fatalf("runtime = %v", r1)
	}
	if r1 != r2 {
		t.Fatalf("noiseless runtime not deterministic: %v vs %v", r1, r2)
	}
}

func TestNoiseIsBoundedAndNonDegenerate(t *testing.T) {
	p := executedPlan(t, "")
	sim := New(DefaultProfile(), 7)
	base := sim.RuntimeNoiseless(p)
	varied := false
	for i := 0; i < 50; i++ {
		r := sim.Runtime(p)
		ratio := r / base
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("noise ratio %v outside plausible band", ratio)
		}
		if math.Abs(ratio-1) > 1e-6 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("noise never varied")
	}
}

func TestZeroSigmaMeansNoNoise(t *testing.T) {
	p := executedPlan(t, "")
	prof := DefaultProfile()
	prof.NoiseSigma = 0
	sim := New(prof, 3)
	if sim.Runtime(p) != sim.RuntimeNoiseless(p) {
		t.Fatal("sigma=0 still noisy")
	}
}

func TestMoreWorkTakesLonger(t *testing.T) {
	p := executedPlan(t, "")
	sim := New(DefaultProfile(), 1)
	base := sim.RuntimeNoiseless(p)
	// Inflate the root's tuple counter; runtime must increase.
	bigger := p.Clone()
	bigger.Work.TuplesIn += 1e6
	if got := sim.RuntimeNoiseless(bigger); got <= base {
		t.Fatalf("inflated plan not slower: %v <= %v", got, base)
	}
}

func TestFastProfileFaster(t *testing.T) {
	p := executedPlan(t, "")
	slow := New(DefaultProfile(), 1).RuntimeNoiseless(p)
	fast := New(FastProfile(), 1).RuntimeNoiseless(p)
	if fast >= slow {
		t.Fatalf("fast profile not faster: %v >= %v", fast, slow)
	}
}

func TestCacheSpillSlowsHashJoin(t *testing.T) {
	prof := DefaultProfile()
	n := plan.NewNode(plan.HashJoin)
	n.Width = 64
	n.Work = plan.Counters{HashBuild: 1000, HashProbes: 1000}
	small := prof.nodeTime(n)
	// Same per-tuple work but a table far beyond cache.
	big := plan.NewNode(plan.HashJoin)
	big.Width = 64
	big.Work = plan.Counters{HashBuild: 1000, HashProbes: 1000}
	prof.CacheBytes = 1000 // force spill
	spilled := prof.nodeTime(big)
	if spilled <= small {
		t.Fatalf("cache spill did not slow hash join: %v <= %v", spilled, small)
	}
}

func TestBufferPoolPressure(t *testing.T) {
	prof := DefaultProfile()
	prof.BufferPoolPages = 10
	sim := New(prof, 1)
	n := plan.NewNode(plan.SeqScan)
	n.Table = "t"
	n.Work = plan.Counters{PagesRead: 1000}
	withPressure := sim.RuntimeNoiseless(n)
	prof2 := DefaultProfile()
	prof2.BufferPoolPages = 1e9
	sim2 := New(prof2, 1)
	without := sim2.RuntimeNoiseless(n)
	if withPressure <= without {
		t.Fatalf("buffer pressure did not slow query: %v <= %v", withPressure, without)
	}
}

func TestCollectionHours(t *testing.T) {
	if got := CollectionHours([]float64{3600, 1800}); got != 1.5 {
		t.Fatalf("CollectionHours = %v, want 1.5", got)
	}
	if got := CollectionHours(nil); got != 0 {
		t.Fatalf("CollectionHours(nil) = %v", got)
	}
}

func TestPeakMemoryBytesReflectsHashWork(t *testing.T) {
	small := plan.NewNode(plan.HashJoin)
	small.Width = 64
	small.Work = plan.Counters{HashBuild: 100, BytesOut: 1000}
	big := plan.NewNode(plan.HashJoin)
	big.Width = 64
	big.Work = plan.Counters{HashBuild: 100000, BytesOut: 1000}
	if PeakMemoryBytes(big) <= PeakMemoryBytes(small) {
		t.Fatal("larger hash build did not increase peak memory")
	}
	// Aggregates contribute via group count.
	agg := plan.NewNode(plan.HashAggregate)
	agg.Width = 32
	agg.Work = plan.Counters{Groups: 50000}
	if PeakMemoryBytes(agg) <= PeakMemoryBytes(plan.NewNode(plan.SeqScan)) {
		t.Fatal("aggregate groups did not increase peak memory")
	}
}

func TestDescriptorRelativeSpeeds(t *testing.T) {
	relCPU, relSeq, relRand, cacheMB, pool := DefaultProfile().Descriptor()
	if relCPU != 1 || relSeq != 1 || relRand != 1 {
		t.Fatalf("reference descriptor not unity: %v %v %v", relCPU, relSeq, relRand)
	}
	if cacheMB <= 0 || pool <= 0 {
		t.Fatalf("capacities not positive: %v %v", cacheMB, pool)
	}
	fCPU, fSeq, _, _, _ := FastProfile().Descriptor()
	if fCPU <= 1 || fSeq <= 1 {
		t.Fatalf("fast profile not faster in descriptor: %v %v", fCPU, fSeq)
	}
}
