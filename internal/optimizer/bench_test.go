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
