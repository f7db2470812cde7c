package schema

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleSchema() *Schema {
	title := &Table{
		Name: "title",
		Columns: []Column{
			{Name: "id", Type: TypeInt, DistinctCount: 1000, PrimaryKey: true},
			{Name: "production_year", Type: TypeInt, DistinctCount: 100},
			{Name: "kind", Type: TypeCategorical, DistinctCount: 7},
		},
		RowCount: 1000,
	}
	title.ComputePages()
	mc := &Table{
		Name: "movie_companies",
		Columns: []Column{
			{Name: "id", Type: TypeInt, DistinctCount: 5000, PrimaryKey: true},
			{Name: "movie_id", Type: TypeInt, DistinctCount: 900},
			{Name: "company_type_id", Type: TypeInt, DistinctCount: 4},
		},
		RowCount: 5000,
	}
	mc.ComputePages()
	return &Schema{
		Name:   "imdb_mini",
		Tables: []*Table{title, mc},
		ForeignKeys: []ForeignKey{
			{FromTable: "movie_companies", FromColumn: "movie_id", ToTable: "title", ToColumn: "id"},
		},
	}
}

func TestValidateAcceptsWellFormedSchema(t *testing.T) {
	s := sampleSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejectsDuplicateTable(t *testing.T) {
	s := sampleSchema()
	s.Tables = append(s.Tables, s.Tables[0])
	if err := s.Validate(); err == nil {
		t.Fatal("Validate() accepted duplicate table")
	}
}

func TestValidateRejectsDuplicateColumn(t *testing.T) {
	s := sampleSchema()
	s.Tables[0].Columns = append(s.Tables[0].Columns, Column{Name: "id", Type: TypeInt})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate() accepted duplicate column")
	}
}

func TestValidateRejectsDanglingForeignKey(t *testing.T) {
	s := sampleSchema()
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{FromTable: "nope", FromColumn: "x", ToTable: "title", ToColumn: "id"})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate() accepted FK from unknown table")
	}
}

func TestValidateRejectsFKToNonPrimaryKey(t *testing.T) {
	s := sampleSchema()
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{
		FromTable: "movie_companies", FromColumn: "movie_id",
		ToTable: "title", ToColumn: "production_year",
	})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate() accepted FK targeting non-PK column")
	}
}

func TestValidateRejectsBadNullFrac(t *testing.T) {
	s := sampleSchema()
	s.Tables[0].Columns[1].NullFrac = 1.0
	if err := s.Validate(); err == nil {
		t.Fatal("Validate() accepted NullFrac = 1.0")
	}
}

func TestTableLookups(t *testing.T) {
	s := sampleSchema()
	if s.Table("title") == nil {
		t.Fatal("Table(title) = nil")
	}
	if s.Table("missing") != nil {
		t.Fatal("Table(missing) != nil")
	}
	tt := s.Table("title")
	if got := tt.Column("kind"); got == nil || got.Type != TypeCategorical {
		t.Fatalf("Column(kind) = %v", got)
	}
	if got := tt.ColumnIndex("production_year"); got != 1 {
		t.Fatalf("ColumnIndex(production_year) = %d, want 1", got)
	}
	if got := tt.ColumnIndex("missing"); got != -1 {
		t.Fatalf("ColumnIndex(missing) = %d, want -1", got)
	}
}

func TestComputePagesProperties(t *testing.T) {
	// Pages are monotone in row count, and never zero.
	f := func(rows uint16) bool {
		tab := &Table{
			Name:     "t",
			Columns:  []Column{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeCategorical}},
			RowCount: int(rows),
		}
		tab.ComputePages()
		if tab.PageCount < 1 {
			return false
		}
		bigger := *tab
		bigger.RowCount = tab.RowCount*2 + 1
		bigger.ComputePages()
		return bigger.PageCount >= tab.PageCount
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowWidthIncludesAllColumns(t *testing.T) {
	tab := &Table{
		Name: "t",
		Columns: []Column{
			{Name: "a", Type: TypeInt},
			{Name: "b", Type: TypeFloat},
			{Name: "c", Type: TypeCategorical},
		},
	}
	want := 24 + 8 + 8 + 16
	if got := tab.RowWidth(); got != want {
		t.Fatalf("RowWidth() = %d, want %d", got, want)
	}
}

func TestDataTypeStringAndNumeric(t *testing.T) {
	cases := []struct {
		ty      DataType
		name    string
		numeric bool
	}{
		{TypeInt, "BIGINT", true},
		{TypeFloat, "DOUBLE", true},
		{TypeCategorical, "VARCHAR", false},
	}
	for _, c := range cases {
		if c.ty.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", int(c.ty), c.ty.String(), c.name)
		}
		if c.ty.Numeric() != c.numeric {
			t.Errorf("%v.Numeric() = %v, want %v", c.name, c.ty.Numeric(), c.numeric)
		}
	}
	if got := DataType(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown type String() = %q", got)
	}
}

func TestSchemaStringMentionsEverything(t *testing.T) {
	s := sampleSchema()
	str := s.String()
	for _, want := range []string{"title", "movie_companies", "production_year", "FOREIGN KEY", "PRIMARY KEY"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}

func TestTableNamesSorted(t *testing.T) {
	s := sampleSchema()
	names := s.TableNames()
	if len(names) != 2 || names[0] != "movie_companies" || names[1] != "title" {
		t.Fatalf("TableNames() = %v", names)
	}
}
