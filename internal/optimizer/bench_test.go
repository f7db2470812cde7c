package optimizer

import (
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
)

// BenchmarkPlanFiveWayJoin measures DP planning latency for the largest
// queries of the paper's workload envelope.
func BenchmarkPlanFiveWayJoin(b *testing.B) {
	db, err := datagen.IMDBLike(0.05)
	if err != nil {
		b.Fatal(err)
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := New(db.Schema, st, nil, DefaultCostParams())
	q := fiveWayJoin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Plan(q); err != nil {
			b.Fatal(err)
		}
	}
}

// fiveWayJoin is the star join of title with four of its satellites.
func fiveWayJoin() *query.Query {
	return &query.Query{
		Tables: []string{"title", "movie_companies", "cast_info", "movie_info", "movie_keyword"},
		Joins: []query.Join{
			{Left: query.ColumnRef{Table: "movie_companies", Column: "movie_id"}, Right: query.ColumnRef{Table: "title", Column: "id"}},
			{Left: query.ColumnRef{Table: "cast_info", Column: "movie_id"}, Right: query.ColumnRef{Table: "title", Column: "id"}},
			{Left: query.ColumnRef{Table: "movie_info", Column: "movie_id"}, Right: query.ColumnRef{Table: "title", Column: "id"}},
			{Left: query.ColumnRef{Table: "movie_keyword", Column: "movie_id"}, Right: query.ColumnRef{Table: "title", Column: "id"}},
		},
		Filters: []query.Filter{
			{Col: query.ColumnRef{Table: "title", Column: "production_year"}, Op: query.OpGt, Value: 100},
		},
		Aggregates: []query.Aggregate{{Func: query.AggCount}},
	}
}

// BenchmarkPlanGenerated cycles 256 generated queries per schema — one
// to five tables, the mix the bench harness streams — with no index and
// with every index the query could use, so the number is not one
// memorised star join.
func BenchmarkPlanGenerated(b *testing.B) {
	for _, fx := range referenceFixtures(b) {
		qs := fx.qs[:256]
		base := New(fx.db.Schema, fx.st, nil, DefaultCostParams())
		indexed := make([]*Optimizer, len(qs))
		for i, q := range qs {
			indexed[i] = New(fx.db.Schema, fx.st, RelevantIndexes(q), DefaultCostParams())
		}
		b.Run(fx.name+"/no-index", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := base.Plan(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fx.name+"/indexed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := indexed[i%len(qs)].Plan(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
