package query

import (
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
)

func TestValidateCatchesProblems(t *testing.T) {
	base := func() *Query {
		return &Query{
			Tables: []string{"a", "b"},
			Joins: []Join{{
				Left:  ColumnRef{Table: "a", Column: "b_id"},
				Right: ColumnRef{Table: "b", Column: "id"},
			}},
			Filters:    []Filter{{Col: ColumnRef{Table: "a", Column: "x"}, Op: OpGt, Value: 3}},
			Aggregates: []Aggregate{{Func: AggCount}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}

	q := base()
	q.Tables = nil
	if q.Validate() == nil {
		t.Error("accepted empty FROM")
	}

	q = base()
	q.Tables = []string{"a", "a"}
	if q.Validate() == nil {
		t.Error("accepted duplicate table")
	}

	q = base()
	q.Joins[0].Right.Table = "c"
	if q.Validate() == nil {
		t.Error("accepted join to table outside FROM")
	}

	q = base()
	q.Filters[0].Col.Table = "zzz"
	if q.Validate() == nil {
		t.Error("accepted filter on table outside FROM")
	}

	q = base()
	q.Joins = nil
	if q.Validate() == nil {
		t.Error("accepted disconnected join graph")
	}

	q = base()
	q.Aggregates = append(q.Aggregates, Aggregate{Func: AggSum, Col: ColumnRef{Table: "zzz", Column: "v"}})
	if q.Validate() == nil {
		t.Error("accepted aggregate on table outside FROM")
	}

	q = base()
	q.GroupBy = []ColumnRef{{Table: "zzz", Column: "v"}}
	if q.Validate() == nil {
		t.Error("accepted group by on table outside FROM")
	}
}

func TestSQLRendering(t *testing.T) {
	q := &Query{
		Tables: []string{"title", "movie_companies"},
		Joins: []Join{{
			Left:  ColumnRef{Table: "movie_companies", Column: "movie_id"},
			Right: ColumnRef{Table: "title", Column: "id"},
		}},
		Filters: []Filter{
			{Col: ColumnRef{Table: "title", Column: "production_year"}, Op: OpGt, Value: 1990},
		},
		Aggregates: []Aggregate{
			{Func: AggMin, Col: ColumnRef{Table: "title", Column: "production_year"}},
			{Func: AggCount},
		},
	}
	sql := q.SQL()
	for _, want := range []string{
		"SELECT MIN(title.production_year), COUNT(*)",
		"FROM movie_companies, title",
		"movie_companies.movie_id = title.id",
		"title.production_year > 1990",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL() = %q missing %q", sql, want)
		}
	}
}

func TestOpAndAggStrings(t *testing.T) {
	ops := map[CmpOp]string{OpEq: "=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpNeq: "<>"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q want %q", int(op), op.String(), want)
		}
	}
	aggs := map[AggFunc]string{AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX"}
	for a, want := range aggs {
		if a.String() != want {
			t.Errorf("agg %d.String() = %q want %q", int(a), a.String(), want)
		}
	}
}

func TestGeneratorProducesValidQueries(t *testing.T) {
	db, err := datagen.IMDBLike(0.05)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(db, DefaultGenConfig(), 1)
	qs, err := gen.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 200 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Fatalf("invalid query %q: %v", q.SQL(), err)
		}
		if len(q.Tables) > 5 {
			t.Fatalf("query exceeds 5 tables: %q", q.SQL())
		}
		if len(q.Filters) > 5 {
			t.Fatalf("query exceeds 5 filters: %q", q.SQL())
		}
		if len(q.Aggregates) > 3 {
			t.Fatalf("query exceeds 3 aggregates: %q", q.SQL())
		}
		for _, tname := range q.Tables {
			if db.Schema.Table(tname) == nil {
				t.Fatalf("query references unknown table %s", tname)
			}
		}
		for _, f := range q.Filters {
			if db.Schema.Table(f.Col.Table).Column(f.Col.Column) == nil {
				t.Fatalf("query filters unknown column %s", f.Col)
			}
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	db, _ := datagen.IMDBLike(0.05)
	a, _ := NewGenerator(db, DefaultGenConfig(), 5).Generate(20)
	b, _ := NewGenerator(db, DefaultGenConfig(), 5).Generate(20)
	for i := range a {
		if a[i].SQL() != b[i].SQL() {
			t.Fatalf("query %d differs:\n%s\n%s", i, a[i].SQL(), b[i].SQL())
		}
	}
}

func TestGeneratorCoversJoinSizes(t *testing.T) {
	db, _ := datagen.IMDBLike(0.05)
	qs, _ := NewGenerator(db, DefaultGenConfig(), 2).Generate(300)
	sizes := map[int]int{}
	for _, q := range qs {
		sizes[len(q.Tables)]++
	}
	for k := 1; k <= 3; k++ {
		if sizes[k] == 0 {
			t.Errorf("no queries with %d tables generated (distribution %v)", k, sizes)
		}
	}
}

func TestJOBLightIsCountStarEqHeavy(t *testing.T) {
	db, _ := datagen.IMDBLike(0.05)
	qs, err := JOBLight(db, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranges := 0
	total := 0
	for _, q := range qs {
		if len(q.Aggregates) != 1 || q.Aggregates[0].Func != AggCount {
			t.Fatalf("JOB-light query has aggregates %v", q.Aggregates)
		}
		for _, f := range q.Filters {
			total++
			if f.Op != OpEq && f.Op != OpNeq {
				ranges++
			}
		}
	}
	if total > 0 && float64(ranges)/float64(total) > 0.3 {
		t.Fatalf("JOB-light has %d/%d range predicates, want rare", ranges, total)
	}
}

func TestScaleAndSyntheticWorkloads(t *testing.T) {
	db, _ := datagen.IMDBLike(0.05)
	for name, f := range map[string]func() ([]*Query, error){
		"scale":     func() ([]*Query, error) { return Scale(db, 50, 4) },
		"synthetic": func() ([]*Query, error) { return Synthetic(db, 50, 4) },
	} {
		qs, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(qs) != 50 {
			t.Fatalf("%s: got %d queries", name, len(qs))
		}
		for _, q := range qs {
			if err := q.Validate(); err != nil {
				t.Fatalf("%s: invalid query: %v", name, err)
			}
		}
	}
}

func TestFiltersOn(t *testing.T) {
	q := &Query{
		Tables: []string{"a"},
		Filters: []Filter{
			{Col: ColumnRef{Table: "a", Column: "x"}, Op: OpEq, Value: 1},
			{Col: ColumnRef{Table: "a", Column: "y"}, Op: OpGt, Value: 2},
		},
	}
	if got := q.FiltersOn("a"); len(got) != 2 {
		t.Fatalf("FiltersOn(a) = %d filters", len(got))
	}
	if got := q.FiltersOn("b"); len(got) != 0 {
		t.Fatalf("FiltersOn(b) = %d filters", len(got))
	}
}
