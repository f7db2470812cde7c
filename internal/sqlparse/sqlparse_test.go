package sqlparse

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

func imdbSchema(t *testing.T) *schema.Schema {
	t.Helper()
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	return db.Schema
}

func TestParsePaperExampleQuery(t *testing.T) {
	sch := imdbSchema(t)
	// The paper's Figure 2 example adapted to our schema.
	q, err := Parse(`SELECT MIN(title.production_year) FROM movie_companies, title
		WHERE title.id = movie_companies.movie_id AND title.production_year > 1990
		AND movie_companies.company_type_id = 2;`, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 || len(q.Joins) != 1 || len(q.Filters) != 2 || len(q.Aggregates) != 1 {
		t.Fatalf("parsed structure wrong: %s", q.SQL())
	}
	if q.Aggregates[0].Func != query.AggMin || q.Aggregates[0].Col.Column != "production_year" {
		t.Fatalf("aggregate = %v", q.Aggregates[0])
	}
	if q.Filters[0].Op != query.OpGt || q.Filters[0].Value != 1990 {
		t.Fatalf("filter = %v", q.Filters[0])
	}
}

func TestParseCountStar(t *testing.T) {
	sch := imdbSchema(t)
	q, err := Parse("SELECT COUNT(*) FROM title", sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 1 || q.Aggregates[0].Func != query.AggCount {
		t.Fatalf("aggregates = %v", q.Aggregates)
	}
}

func TestParseSelectStar(t *testing.T) {
	sch := imdbSchema(t)
	q, err := Parse("SELECT * FROM title WHERE title.production_year >= 100", sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggregates) != 0 || len(q.Filters) != 1 || q.Filters[0].Op != query.OpGe {
		t.Fatalf("parsed: %s", q.SQL())
	}
}

func TestParseUnqualifiedColumn(t *testing.T) {
	sch := imdbSchema(t)
	q, err := Parse("SELECT COUNT(*) FROM title WHERE production_year > 50", sch)
	if err != nil {
		t.Fatal(err)
	}
	if q.Filters[0].Col.Table != "title" {
		t.Fatalf("resolved table = %s", q.Filters[0].Col.Table)
	}
}

func TestParseAmbiguousColumnRejected(t *testing.T) {
	sch := imdbSchema(t)
	// movie_id exists in several fact tables.
	_, err := Parse("SELECT COUNT(*) FROM movie_companies, cast_info, title WHERE movie_id = 3 AND movie_companies.movie_id = title.id AND cast_info.movie_id = title.id", sch)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v, want ambiguous column error", err)
	}
}

func TestParseGroupBy(t *testing.T) {
	sch := imdbSchema(t)
	q, err := Parse("SELECT COUNT(*), MAX(season_nr) FROM title GROUP BY kind_id", sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "kind_id" {
		t.Fatalf("group by = %v", q.GroupBy)
	}
}

func TestParseAllOperators(t *testing.T) {
	sch := imdbSchema(t)
	ops := map[string]query.CmpOp{
		"=": query.OpEq, "<": query.OpLt, "<=": query.OpLe,
		">": query.OpGt, ">=": query.OpGe, "<>": query.OpNeq, "!=": query.OpNeq,
	}
	for text, want := range ops {
		q, err := Parse("SELECT COUNT(*) FROM title WHERE production_year "+text+" 10", sch)
		if err != nil {
			t.Fatalf("op %s: %v", text, err)
		}
		if q.Filters[0].Op != want {
			t.Fatalf("op %s parsed as %v", text, q.Filters[0].Op)
		}
	}
}

func TestParseNumericLiterals(t *testing.T) {
	sch := imdbSchema(t)
	for _, lit := range []string{"42", "-3", "3.5", "1e3"} {
		q, err := Parse("SELECT COUNT(*) FROM title WHERE production_year < "+lit, sch)
		if err != nil {
			t.Fatalf("literal %s: %v", lit, err)
		}
		if q.Filters[0].Value == 0 {
			t.Fatalf("literal %s parsed as 0", lit)
		}
	}
}

func TestParseErrors(t *testing.T) {
	sch := imdbSchema(t)
	cases := []string{
		"",
		"SELEKT COUNT(*) FROM title",
		"SELECT COUNT(* FROM title",
		"SELECT COUNT(*) FROM ghost_table",
		"SELECT COUNT(*) FROM title WHERE nosuchcol = 1",
		"SELECT COUNT(*) FROM title WHERE production_year ?? 3",
		"SELECT SUM(*) FROM title",
		"SELECT COUNT(*) FROM title trailing garbage",
		"SELECT COUNT(*) FROM title, movie_companies",                          // disconnected join graph
		"SELECT COUNT(*) FROM title WHERE title.id < movie_companies.movie_id", // non-equi join
	}
	for _, sql := range cases {
		if _, err := Parse(sql, sch); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	sch := imdbSchema(t)
	if _, err := Parse("select count(*) from title where production_year > 1 group by kind_id", sch); err != nil {
		t.Fatal(err)
	}
}

func TestParseDuplicateTableCollapsed(t *testing.T) {
	sch := imdbSchema(t)
	q, err := Parse("SELECT COUNT(*) FROM title, title", sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 {
		t.Fatalf("tables = %v", q.Tables)
	}
}

// TestRoundTripGeneratedQueries: every generator query's SQL() rendering
// parses back into a query with identical SQL() — the parser and the
// renderer agree on the dialect.
func TestRoundTripGeneratedQueries(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := query.Synthetic(db, 150, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		sql := q.SQL()
		parsed, err := Parse(sql, db.Schema)
		if err != nil {
			t.Fatalf("round trip parse of %q: %v", sql, err)
		}
		if parsed.SQL() != sql {
			t.Fatalf("round trip mismatch:\n in: %s\nout: %s", sql, parsed.SQL())
		}
	}
}

func TestParsedQueryExecutes(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(`SELECT COUNT(*), MIN(title.production_year) FROM movie_companies, title
		WHERE title.id = movie_companies.movie_id AND movie_companies.company_type_id = 1`, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = storage.Database{} // silence unused import if helpers change
}

func TestLexerRejectsGarbageProperty(t *testing.T) {
	// The lexer either errors or produces tokens that end with EOF; it
	// never panics on arbitrary input.
	sch := imdbSchema(t)
	f := func(s string) bool {
		_, _ = Parse(s, sch) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// nonASCIIInputs are statements with bytes >= 0x80 that the lexer used
// to read as Latin-1 code points: NBSP (0xA0) and NEL (0x85) skipped as
// white space, 0xAA/0xB5/0xBA and most of 0xC0.. taken for letters and
// lowercased into U+FFFD. They are FuzzParse's seed corpus too.
var nonASCIIInputs = []struct {
	name, sql string
	at        int // offset of the offending byte
}{
	{"nbsp-nel-as-space", "SELECT COUNT(*) FROM\xa0title\x85WHERE title.production_year\xa0>\xa050", 20},
	{"latin1-letter-in-ident", "SELECT COUNT(*) FROM tit\xe9", 24},
	{"micro-sign-leads-ident", "SELECT COUNT(*) FROM title WHERE \xb5production_year > 50", 33},
	{"utf8-nbsp", "SELECT COUNT(*) FROM title\xc2\xa0WHERE production_year > 50", 26},
}

// TestLexIsASCII: any byte >= 0x80 is rejected where it stands, by the
// error that names unexpected characters; ASCII white space of every kind
// still separates tokens, and what is accepted re-parses from its
// rendering.
func TestLexIsASCII(t *testing.T) {
	sch := imdbSchema(t)
	for _, tc := range nonASCIIInputs {
		_, err := Parse(tc.sql, sch)
		want := fmt.Sprintf("sqlparse: unexpected character %q at %d", tc.sql[tc.at:tc.at+1], tc.at)
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", tc.name, err, want)
		}
	}
	for b := 0x80; b <= 0xff; b++ {
		sql := "SELECT COUNT(*) FROM title" + string([]byte{byte(b)})
		if _, err := Parse(sql, sch); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("byte %#x after a statement: err = %v", b, err)
		}
	}
	q, err := Parse("SELECT\tCOUNT(*)\nFROM\vtitle\fWHERE\rtitle.production_year > 50 ", sch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(q.SQL(), sch); err != nil {
		t.Fatalf("rendered %q does not re-parse: %v", q.SQL(), err)
	}
	if _, err := Parse("SELECT COUNT(*) FROM title WHERE production_year > 50 #", sch); err == nil ||
		err.Error() != "sqlparse: unexpected character '#' at 54" {
		t.Fatalf("ASCII garbage: err = %v", err)
	}
}
