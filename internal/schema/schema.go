// Package schema defines the relational schema model shared by every layer
// of the system: logical column and table definitions, data types, foreign
// key relationships and per-table statistics.
//
// The schema model is deliberately database-agnostic: a schema carries no
// identity beyond its names, and all learned components consume only the
// transferable statistics (row counts, page counts, widths, data types)
// defined here, never the names themselves.
package schema

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DataType enumerates the column data types supported by the engine.
//
// The set mirrors the types exercised by the paper's workloads: numeric
// columns used in range predicates and aggregates, and categorical columns
// used in equality predicates.
type DataType int

const (
	// TypeInt is a 64-bit integer column.
	TypeInt DataType = iota
	// TypeFloat is a 64-bit floating point column.
	TypeFloat
	// TypeCategorical is a dictionary-encoded string column with a bounded
	// domain, e.g. a kind/status/country column.
	TypeCategorical
)

// NumDataTypes is the number of distinct DataType values; featurizers size
// their one-hot segments with it.
const NumDataTypes = 3

// String returns the SQL-ish name of the data type.
func (t DataType) String() string {
	switch t {
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeCategorical:
		return "VARCHAR"
	default:
		return fmt.Sprintf("DataType(%d)", int(t))
	}
}

// Numeric reports whether the type supports range predicates and arithmetic
// aggregates (SUM/AVG/MIN/MAX).
func (t DataType) Numeric() bool { return t == TypeInt || t == TypeFloat }

// Width returns the storage width of one value in bytes. Categorical values
// are dictionary encoded, so their in-page footprint is a fixed code plus an
// amortized dictionary share.
func (t DataType) Width() int {
	switch t {
	case TypeInt:
		return 8
	case TypeFloat:
		return 8
	case TypeCategorical:
		return 16
	default:
		return 8
	}
}

// Column describes one column of a table.
type Column struct {
	// Name is unique within the table.
	Name string
	// Type is the column data type.
	Type DataType
	// DistinctCount is the exact number of distinct values present.
	DistinctCount int
	// NullFrac is the fraction of NULL values in [0, 1).
	NullFrac float64
	// PrimaryKey marks the table's primary key column.
	PrimaryKey bool
}

// ForeignKey declares that FromTable.FromColumn references ToTable's
// primary key column ToColumn.
type ForeignKey struct {
	FromTable  string
	FromColumn string
	ToTable    string
	ToColumn   string
}

// Table describes one table: its columns and physical statistics.
type Table struct {
	Name    string
	Columns []Column
	// RowCount is the exact number of rows.
	RowCount int
	// PageCount is the number of storage pages occupied by the table,
	// derived from RowCount and the row width at the configured page size.
	PageCount int
}

// PageSize is the storage page size in bytes used for page accounting
// throughout the system (the Postgres default).
const PageSize = 8192

// RowWidth returns the width of one row in bytes (sum of column widths plus
// a fixed per-row header, mirroring heap tuple headers).
func (t *Table) RowWidth() int {
	const rowHeader = 24
	w := rowHeader
	for _, c := range t.Columns {
		w += c.Type.Width()
	}
	return w
}

// ComputePages recomputes PageCount from RowCount and RowWidth.
func (t *Table) ComputePages() {
	rowsPerPage := PageSize / t.RowWidth()
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	t.PageCount = (t.RowCount + rowsPerPage - 1) / rowsPerPage
	if t.PageCount == 0 {
		t.PageCount = 1
	}
}

// Column returns the column with the given name, or nil.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// Schema is a named collection of tables and foreign keys. It is the unit
// the zero-shot model generalizes across: models are trained on many
// schemas and evaluated on schemas they never saw.
type Schema struct {
	Name        string
	Tables      []*Table
	ForeignKeys []ForeignKey

	// fp caches Fingerprint's digest. Schemas are treated as immutable
	// once built (every layer shares them by pointer); the fingerprint
	// is computed at most once per Schema value.
	fpOnce sync.Once
	fp     string
}

// Fingerprint returns a stable content identity for the schema: the
// hex SHA-256 of every field a featurizer can observe — table names,
// row/page counts, column names, types, distinct counts, null
// fractions, primary keys, and foreign keys, in declaration order.
// Two independently constructed but structurally identical schemas
// (e.g. the same database attached twice across a reload) share a
// fingerprint, which is what lets caches key on schema *content*
// instead of leak-prone pointers. Computed lazily once and cached;
// the schema must not be mutated afterwards.
func (s *Schema) Fingerprint() string {
	s.fpOnce.Do(func() {
		h := sha256.New()
		fmt.Fprintf(h, "schema %q\n", s.Name)
		for _, t := range s.Tables {
			fmt.Fprintf(h, "table %q rows=%d pages=%d\n", t.Name, t.RowCount, t.PageCount)
			for _, c := range t.Columns {
				fmt.Fprintf(h, "col %q type=%d distinct=%d nullfrac=%g pk=%t\n",
					c.Name, int(c.Type), c.DistinctCount, c.NullFrac, c.PrimaryKey)
			}
		}
		for _, fk := range s.ForeignKeys {
			fmt.Fprintf(h, "fk %q.%q->%q.%q\n", fk.FromTable, fk.FromColumn, fk.ToTable, fk.ToColumn)
		}
		s.fp = hex.EncodeToString(h.Sum(nil))
	})
	return s.fp
}

// Table returns the table with the given name, or nil.
func (s *Schema) Table(name string) *Table {
	for _, t := range s.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// TableNames returns the sorted table names.
func (s *Schema) TableNames() []string {
	names := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}

// Validate checks structural consistency: unique table names, unique column
// names per table, FK endpoints exist, FK targets are primary keys, and
// statistics are sane. It returns the first problem found.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: empty schema name")
	}
	seenTables := map[string]bool{}
	for _, t := range s.Tables {
		if t.Name == "" {
			return fmt.Errorf("schema %s: table with empty name", s.Name)
		}
		if seenTables[t.Name] {
			return fmt.Errorf("schema %s: duplicate table %s", s.Name, t.Name)
		}
		seenTables[t.Name] = true
		if len(t.Columns) == 0 {
			return fmt.Errorf("schema %s: table %s has no columns", s.Name, t.Name)
		}
		if t.RowCount < 0 {
			return fmt.Errorf("schema %s: table %s has negative row count", s.Name, t.Name)
		}
		if t.PageCount <= 0 {
			return fmt.Errorf("schema %s: table %s has non-positive page count", s.Name, t.Name)
		}
		seenCols := map[string]bool{}
		pkCount := 0
		for _, c := range t.Columns {
			if c.Name == "" {
				return fmt.Errorf("schema %s: table %s has a column with empty name", s.Name, t.Name)
			}
			if seenCols[c.Name] {
				return fmt.Errorf("schema %s: table %s duplicate column %s", s.Name, t.Name, c.Name)
			}
			seenCols[c.Name] = true
			if c.DistinctCount < 0 {
				return fmt.Errorf("schema %s: %s.%s negative distinct count", s.Name, t.Name, c.Name)
			}
			if c.NullFrac < 0 || c.NullFrac >= 1 {
				return fmt.Errorf("schema %s: %s.%s null fraction %v out of [0,1)", s.Name, t.Name, c.Name, c.NullFrac)
			}
			if c.PrimaryKey {
				pkCount++
			}
		}
		if pkCount > 1 {
			return fmt.Errorf("schema %s: table %s has %d primary key columns", s.Name, t.Name, pkCount)
		}
	}
	for _, fk := range s.ForeignKeys {
		from := s.Table(fk.FromTable)
		if from == nil {
			return fmt.Errorf("schema %s: foreign key from unknown table %s", s.Name, fk.FromTable)
		}
		if from.Column(fk.FromColumn) == nil {
			return fmt.Errorf("schema %s: foreign key from unknown column %s.%s", s.Name, fk.FromTable, fk.FromColumn)
		}
		to := s.Table(fk.ToTable)
		if to == nil {
			return fmt.Errorf("schema %s: foreign key to unknown table %s", s.Name, fk.ToTable)
		}
		toCol := to.Column(fk.ToColumn)
		if toCol == nil {
			return fmt.Errorf("schema %s: foreign key to unknown column %s.%s", s.Name, fk.ToTable, fk.ToColumn)
		}
		if !toCol.PrimaryKey {
			return fmt.Errorf("schema %s: foreign key targets non-primary-key column %s.%s", s.Name, fk.ToTable, fk.ToColumn)
		}
	}
	return nil
}

// String renders the schema as CREATE TABLE-like text for debugging.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- schema %s\n", s.Name)
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "CREATE TABLE %s ( -- %d rows, %d pages\n", t.Name, t.RowCount, t.PageCount)
		for i, c := range t.Columns {
			comma := ","
			if i == len(t.Columns)-1 {
				comma = ""
			}
			pk := ""
			if c.PrimaryKey {
				pk = " PRIMARY KEY"
			}
			fmt.Fprintf(&b, "  %s %s%s%s -- %d distinct\n", c.Name, c.Type, pk, comma, c.DistinctCount)
		}
		b.WriteString(");\n")
	}
	for _, fk := range s.ForeignKeys {
		fmt.Fprintf(&b, "ALTER TABLE %s ADD FOREIGN KEY (%s) REFERENCES %s(%s);\n",
			fk.FromTable, fk.FromColumn, fk.ToTable, fk.ToColumn)
	}
	return b.String()
}
