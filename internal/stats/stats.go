// Package stats implements the statistics subsystem: per-column equi-depth
// histograms and most-common-value lists, plus the selectivity and
// cardinality estimation the optimizer uses.
//
// These estimates play the role of PostgreSQL's planner statistics in the
// paper: they drive plan choice and provide the "estimated cardinalities"
// input variant of the zero-shot model. Because generated data contains
// cross-column correlation and the estimator assumes independence, the
// estimates err exactly the way real optimizer estimates do.
package stats

import (
	"math"
	"sort"

	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// Bucket is one equi-depth histogram bucket covering values in [Lo, Hi].
type Bucket struct {
	Lo, Hi   float64
	Count    int
	Distinct int
}

// Histogram is an equi-depth histogram over the non-null values of one
// column.
type Histogram struct {
	Buckets []Bucket
	// Total is the number of non-null values summarized.
	Total int
}

// MCV is one most-common-value entry.
type MCV struct {
	Value float64
	Frac  float64 // fraction of all rows (including nulls)
}

// ColumnStats summarizes one column.
type ColumnStats struct {
	Type          schema.DataType
	RowCount      int
	NullFrac      float64
	DistinctCount int
	Min, Max      float64
	Hist          *Histogram
	MCVs          []MCV
}

// DBStats holds the statistics of every column of a database.
type DBStats struct {
	cols map[string]*ColumnStats // key: table.column
}

// DefaultBuckets and DefaultMCVs are the statistics resolution used
// throughout the system (Postgres' default_statistics_target ballpark).
const (
	DefaultBuckets = 32
	DefaultMCVs    = 8
)

// Collect scans every column of the database and builds statistics with the
// given histogram and MCV resolution. Resolution values < 1 fall back to
// the defaults.
func Collect(db *storage.Database, buckets, mcvs int) *DBStats {
	if buckets < 1 {
		buckets = DefaultBuckets
	}
	if mcvs < 0 {
		mcvs = DefaultMCVs
	}
	s := &DBStats{cols: map[string]*ColumnStats{}}
	for _, tm := range db.Schema.Tables {
		tab := db.Table(tm.Name)
		if tab == nil {
			continue
		}
		for ci, cm := range tm.Columns {
			cs := collectColumn(tab.Cols[ci], cm.Type, buckets, mcvs)
			s.cols[tm.Name+"."+cm.Name] = cs
		}
	}
	return s
}

func collectColumn(col *storage.ColumnData, typ schema.DataType, buckets, mcvs int) *ColumnStats {
	n := col.Len()
	cs := &ColumnStats{Type: typ, RowCount: n}
	if n == 0 {
		return cs
	}
	vals := make([]float64, 0, n)
	nulls := 0
	for r := 0; r < n; r++ {
		if col.IsNull(r) {
			nulls++
			continue
		}
		vals = append(vals, col.AsFloat(r))
	}
	cs.NullFrac = float64(nulls) / float64(n)
	if len(vals) == 0 {
		return cs
	}
	sort.Float64s(vals)
	cs.Min, cs.Max = vals[0], vals[len(vals)-1]

	// Distinct count and value frequencies.
	freq := map[float64]int{}
	for _, v := range vals {
		freq[v]++
	}
	cs.DistinctCount = len(freq)

	// MCVs: top-k by frequency.
	type vf struct {
		v float64
		c int
	}
	ordered := make([]vf, 0, len(freq))
	for v, c := range freq {
		ordered = append(ordered, vf{v, c})
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].c != ordered[b].c {
			return ordered[a].c > ordered[b].c
		}
		return ordered[a].v < ordered[b].v
	})
	k := mcvs
	if k > len(ordered) {
		k = len(ordered)
	}
	for i := 0; i < k; i++ {
		cs.MCVs = append(cs.MCVs, MCV{Value: ordered[i].v, Frac: float64(ordered[i].c) / float64(n)})
	}

	cs.Hist = buildEquiDepth(vals, buckets)
	return cs
}

// buildEquiDepth builds an equi-depth histogram over sorted values.
func buildEquiDepth(sorted []float64, buckets int) *Histogram {
	n := len(sorted)
	if buckets > n {
		buckets = n
	}
	h := &Histogram{Total: n}
	per := n / buckets
	rem := n % buckets
	idx := 0
	for b := 0; b < buckets; b++ {
		size := per
		if b < rem {
			size++
		}
		if size == 0 {
			continue
		}
		lo := sorted[idx]
		hi := sorted[idx+size-1]
		distinct := 1
		for i := idx + 1; i < idx+size; i++ {
			if sorted[i] != sorted[i-1] {
				distinct++
			}
		}
		h.Buckets = append(h.Buckets, Bucket{Lo: lo, Hi: hi, Count: size, Distinct: distinct})
		idx += size
	}
	return h
}

// SelectivityLE estimates P(value <= x) among non-null values.
func (h *Histogram) SelectivityLE(x float64) float64 {
	if h == nil || h.Total == 0 {
		return 0.5
	}
	acc := 0.0
	for _, b := range h.Buckets {
		switch {
		case x >= b.Hi:
			acc += float64(b.Count)
		case x < b.Lo:
			// bucket entirely above x
		default:
			// linear interpolation within the bucket
			width := b.Hi - b.Lo
			frac := 0.5
			if width > 0 {
				frac = (x - b.Lo) / width
			}
			acc += float64(b.Count) * frac
		}
	}
	return clamp01(acc / float64(h.Total))
}

// SelectivityEq estimates P(value == x) among non-null values assuming
// uniform spread of distinct values within buckets.
func (h *Histogram) SelectivityEq(x float64) float64 {
	if h == nil || h.Total == 0 {
		return 0.1
	}
	for _, b := range h.Buckets {
		if x >= b.Lo && x <= b.Hi {
			d := b.Distinct
			if d < 1 {
				d = 1
			}
			return clamp01(float64(b.Count) / float64(d) / float64(h.Total))
		}
	}
	return 0
}

// Column returns the stats for table.column, or nil.
func (s *DBStats) Column(table, column string) *ColumnStats {
	return s.cols[table+"."+column]
}

// FilterSelectivity estimates the fraction of a table's rows satisfying the
// filter. NULL rows never satisfy a comparison.
func (s *DBStats) FilterSelectivity(f query.Filter) float64 {
	cs := s.Column(f.Col.Table, f.Col.Column)
	if cs == nil || cs.RowCount == 0 {
		return 0.33 // Postgres-style default guess
	}
	nonNull := 1 - cs.NullFrac

	// Check MCVs first for equality/inequality.
	if f.Op == query.OpEq || f.Op == query.OpNeq {
		for _, m := range cs.MCVs {
			if m.Value == f.Value {
				if f.Op == query.OpEq {
					return clamp01(m.Frac)
				}
				return clamp01(nonNull - m.Frac)
			}
		}
	}
	var sel float64
	switch f.Op {
	case query.OpEq:
		sel = cs.Hist.SelectivityEq(f.Value)
	case query.OpNeq:
		sel = 1 - cs.Hist.SelectivityEq(f.Value)
	case query.OpLt, query.OpLe:
		sel = cs.Hist.SelectivityLE(f.Value)
		if f.Op == query.OpLt {
			sel -= cs.Hist.SelectivityEq(f.Value)
		}
	case query.OpGt, query.OpGe:
		sel = 1 - cs.Hist.SelectivityLE(f.Value)
		if f.Op == query.OpGe {
			sel += cs.Hist.SelectivityEq(f.Value)
		}
	default:
		sel = 0.33
	}
	return clamp01(sel * nonNull)
}

// ScanSelectivity estimates the combined selectivity of several filters on
// one table under the independence assumption.
func (s *DBStats) ScanSelectivity(filters []query.Filter) float64 {
	sel := 1.0
	for _, f := range filters {
		sel *= s.FilterSelectivity(f)
	}
	return clamp01(sel)
}

// JoinSelectivity estimates the selectivity of an equi-join between two
// columns using the standard 1/max(distinct) formula.
func (s *DBStats) JoinSelectivity(j query.Join) float64 {
	l := s.Column(j.Left.Table, j.Left.Column)
	r := s.Column(j.Right.Table, j.Right.Column)
	dl, dr := 1, 1
	if l != nil && l.DistinctCount > 0 {
		dl = l.DistinctCount
	}
	if r != nil && r.DistinctCount > 0 {
		dr = r.DistinctCount
	}
	d := dl
	if dr > d {
		d = dr
	}
	return 1 / float64(d)
}

// EstimateGroupCount estimates the number of groups a GROUP BY over the
// given columns produces from `inputRows` rows, capped by the product of
// distinct counts.
func (s *DBStats) EstimateGroupCount(groupBy []query.ColumnRef, inputRows float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	distinct := 1.0
	for _, g := range groupBy {
		cs := s.Column(g.Table, g.Column)
		if cs != nil && cs.DistinctCount > 0 {
			distinct *= float64(cs.DistinctCount)
		}
	}
	if distinct > inputRows {
		distinct = inputRows
	}
	if distinct < 1 {
		distinct = 1
	}
	return distinct
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
