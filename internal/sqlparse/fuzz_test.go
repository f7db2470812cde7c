package sqlparse

import (
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/schema"
)

// fuzzSchema is a tiny hand-built schema (no data generation): two
// joinable tables with every column type the parser resolves against.
func fuzzSchema() *schema.Schema {
	title := &schema.Table{
		Name: "title",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt, PrimaryKey: true, DistinctCount: 100},
			{Name: "production_year", Type: schema.TypeInt, DistinctCount: 50},
			{Name: "kind", Type: schema.TypeCategorical, DistinctCount: 5},
			{Name: "rating", Type: schema.TypeFloat, DistinctCount: 90},
		},
		RowCount: 100,
	}
	mc := &schema.Table{
		Name: "movie_companies",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt, PrimaryKey: true, DistinctCount: 200},
			{Name: "movie_id", Type: schema.TypeInt, DistinctCount: 100},
			{Name: "company_type_id", Type: schema.TypeInt, DistinctCount: 4},
		},
		RowCount: 200,
	}
	title.ComputePages()
	mc.ComputePages()
	return &schema.Schema{
		Name:   "fuzzdb",
		Tables: []*schema.Table{title, mc},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "movie_companies", FromColumn: "movie_id", ToTable: "title", ToColumn: "id"},
		},
	}
}

// FuzzParse fuzzes the SQL parser against a fixed schema: arbitrary
// input may parse or error, but must never panic — the parser fronts
// raw HTTP request bodies in the serving layer. When a statement does
// parse, its rendered SQL must parse again (the round trip the plan
// cache's by-SQL feedback join leans on).
//
// Seed corpus: f.Add cases below plus testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"SELECT COUNT(*) FROM title",
		"SELECT * FROM title WHERE production_year > 1990;",
		"SELECT MIN(title.production_year) FROM movie_companies, title WHERE title.id = movie_companies.movie_id",
		"SELECT SUM(rating) FROM title GROUP BY kind",
		"select avg(title.rating) from title where rating <= 1.5e1 and production_year <> -3",
		"SELECT COUNT(*) FROM",
		"SELECT FROM WHERE",
		"((((((((((",
		"SELECT COUNT(*) FROM title WHERE production_year > 99999999999999999999999999",
		"\x00SELECT\x00",
		"SELECT COUNT(*) FROM title WHERE kind = kind",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, tc := range nonASCIIInputs {
		f.Add(tc.sql)
	}
	sch := fuzzSchema()
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input, sch)
		if err != nil || q == nil {
			return
		}
		rendered := q.SQL()
		if _, err := Parse(rendered, sch); err != nil {
			t.Fatalf("rendered SQL does not re-parse:\n input    %q\n rendered %q\n err      %v", input, rendered, err)
		}
	})
}
