// Package storage implements the in-memory columnar storage layer that the
// execution engine runs over.
//
// Tables hold typed column vectors; secondary indexes are sorted row-id
// permutations that stand in for B-trees (same asymptotics, same access
// pattern counters). Page accounting mirrors a heap-file layout so that the
// hardware simulator can charge page reads for scans.
//
// The storage layer substitutes for PostgreSQL's heap and B-tree storage in
// the paper's prototype: the learned models only observe plan features and
// work counters, so an in-memory engine that produces exact cardinalities
// and realistic page/tuple counts exercises the identical code path.
package storage

import (
	"fmt"
	"math"
	"sort"

	"github.com/zeroshot-db/zeroshot/internal/schema"
)

// ColumnData holds the values of one column for all rows of a table.
// Integer and categorical columns store int64 codes; float columns store
// float64. Nulls records NULL positions.
type ColumnData struct {
	Type   schema.DataType
	Ints   []int64
	Floats []float64
	Nulls  []bool
}

// Len returns the number of rows stored.
func (c *ColumnData) Len() int {
	if c.Type == schema.TypeFloat {
		return len(c.Floats)
	}
	return len(c.Ints)
}

// IsNull reports whether the value at row is NULL.
func (c *ColumnData) IsNull(row int) bool {
	return c.Nulls != nil && c.Nulls[row]
}

// AsFloat returns the value at row as a float64 for uniform comparisons.
// Callers must check IsNull first; NULL positions return 0.
func (c *ColumnData) AsFloat(row int) float64 {
	if c.Type == schema.TypeFloat {
		return c.Floats[row]
	}
	return float64(c.Ints[row])
}

// Int returns the int64 value at row (valid for int and categorical columns).
func (c *ColumnData) Int(row int) int64 { return c.Ints[row] }

// Table is the physical storage of one table: column vectors plus the
// logical description.
type Table struct {
	Meta *schema.Table
	Cols []*ColumnData
}

// NewTable allocates empty column vectors matching the table definition.
func NewTable(meta *schema.Table) *Table {
	t := &Table{Meta: meta, Cols: make([]*ColumnData, len(meta.Columns))}
	for i, c := range meta.Columns {
		t.Cols[i] = &ColumnData{Type: c.Type}
	}
	return t
}

// Rows returns the number of rows stored.
func (t *Table) Rows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Col returns the column data for the named column, or nil.
func (t *Table) Col(name string) *ColumnData {
	idx := t.Meta.ColumnIndex(name)
	if idx < 0 {
		return nil
	}
	return t.Cols[idx]
}

// Index is a secondary index over one column: row ids ordered by value. It
// models a B-tree — EstimateHeight reports the logical tree height that a
// real B-tree of this size would have, which the hardware simulator charges
// per lookup.
type Index struct {
	Table  string
	Column string
	// rowIDs is the permutation of row ids sorted by column value
	// (NULLs last).
	rowIDs []int32
	col    *ColumnData
}

// BuildIndex constructs a secondary index over the named column.
func BuildIndex(t *Table, column string) (*Index, error) {
	col := t.Col(column)
	if col == nil {
		return nil, fmt.Errorf("storage: index on unknown column %s.%s", t.Meta.Name, column)
	}
	n := t.Rows()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		ra, rb := int(ids[a]), int(ids[b])
		na, nb := col.IsNull(ra), col.IsNull(rb)
		if na != nb {
			return !na // non-null first
		}
		if na {
			return ra < rb
		}
		va, vb := col.AsFloat(ra), col.AsFloat(rb)
		if va != vb {
			return va < vb
		}
		return ra < rb
	})
	return &Index{Table: t.Meta.Name, Column: column, rowIDs: ids, col: col}, nil
}

// EstimateHeight returns the height a B-tree with this many entries would
// have with a typical fanout of 256 (minimum 1).
func (ix *Index) EstimateHeight() int {
	n := len(ix.rowIDs)
	if n <= 1 {
		return 1
	}
	h := int(math.Ceil(math.Log(float64(n)) / math.Log(256)))
	if h < 1 {
		h = 1
	}
	return h
}

// nonNullCount returns the number of leading non-null entries.
func (ix *Index) nonNullCount() int {
	// NULLs sort last; binary search for the first null.
	return sort.Search(len(ix.rowIDs), func(i int) bool {
		return ix.col.IsNull(int(ix.rowIDs[i]))
	})
}

// Range returns the row ids whose column value v satisfies lo <= v <= hi.
// Either bound may be infinite (math.Inf). NULL rows never match.
// The returned slice aliases internal storage and must not be modified.
func (ix *Index) Range(lo, hi float64) []int32 {
	n := ix.nonNullCount()
	start := sort.Search(n, func(i int) bool {
		return ix.col.AsFloat(int(ix.rowIDs[i])) >= lo
	})
	end := sort.Search(n, func(i int) bool {
		return ix.col.AsFloat(int(ix.rowIDs[i])) > hi
	})
	if start >= end {
		return nil
	}
	return ix.rowIDs[start:end]
}

// Lookup returns the row ids whose column value equals v.
func (ix *Index) Lookup(v float64) []int32 { return ix.Range(v, v) }

// Database bundles a schema with its stored tables and built indexes.
type Database struct {
	Schema  *schema.Schema
	tables  map[string]*Table
	indexes map[string]*Index // key: table.column
}

// NewDatabase creates an empty database for the schema.
func NewDatabase(s *schema.Schema) *Database {
	return &Database{
		Schema:  s,
		tables:  make(map[string]*Table, len(s.Tables)),
		indexes: make(map[string]*Index),
	}
}

// AddTable registers stored data for a table. It panics if the table is not
// part of the schema, which indicates a programming error in data loading.
func (db *Database) AddTable(t *Table) {
	if db.Schema.Table(t.Meta.Name) == nil {
		panic(fmt.Sprintf("storage: table %s not in schema %s", t.Meta.Name, db.Schema.Name))
	}
	db.tables[t.Meta.Name] = t
}

// Table returns the stored table with the given name, or nil.
func (db *Database) Table(name string) *Table { return db.tables[name] }

func indexKey(table, column string) string { return table + "." + column }

// EnsureIndex builds (or returns the existing) index on table.column.
// Because indexes are cheap to build in memory, hypothetical ("what-if")
// indexes are realized on demand through this same entry point.
func (db *Database) EnsureIndex(table, column string) (*Index, error) {
	key := indexKey(table, column)
	if ix, ok := db.indexes[key]; ok {
		return ix, nil
	}
	t := db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("storage: EnsureIndex on unknown table %s", table)
	}
	ix, err := BuildIndex(t, column)
	if err != nil {
		return nil, err
	}
	db.indexes[key] = ix
	return ix, nil
}

// IndexedColumns returns the sorted list of "table.column" keys that
// currently have indexes.
func (db *Database) IndexedColumns() []string {
	keys := make([]string, 0, len(db.indexes))
	for k := range db.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
