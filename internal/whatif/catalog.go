package whatif

import (
	"sort"
	"strings"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// Variant is one hypothetical configuration of a database: a set of
// hypothetical indexes. The zero value is the baseline: the database
// exactly as attached.
type Variant struct {
	// Name identifies the variant in results; empty names render as
	// "baseline" for the zero variant or the joined index list.
	Name string
	// Indexes lists hypothetical indexes as "table.column".
	Indexes []string
}

// displayName returns the variant's result name.
func (v Variant) displayName() string {
	if v.Name != "" {
		return v.Name
	}
	if len(v.Indexes) == 0 {
		return "baseline"
	}
	return strings.Join(v.Indexes, "+")
}

// signature canonicalizes the variant for a sweep's plan keys: its
// sorted deduplicated indexes. Two variants with the same signature
// plan identically regardless of their names.
func (v Variant) signature() string {
	idx := append([]string(nil), v.Indexes...)
	sort.Strings(idx)
	idx = dedupSorted(idx)
	return strings.Join(idx, ",")
}

// restrictedTo returns v without the indexes outside rel. With rel a
// statement's optimizer.RelevantIndexes, the result plans that statement
// exactly as v does, and all variants that differ only in indexes the
// statement cannot use collapse to one signature — the baseline's, when
// none of v's indexes is relevant.
func (v Variant) restrictedTo(rel optimizer.IndexSet) Variant {
	var kept []string
	for _, idx := range v.Indexes {
		if rel[idx] {
			kept = append(kept, idx)
		}
	}
	v.Indexes = kept
	return v
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// indexSet converts the variant's index list to the planner's form.
func (v Variant) indexSet() optimizer.IndexSet {
	if len(v.Indexes) == 0 {
		return nil
	}
	set := make(optimizer.IndexSet, len(v.Indexes))
	for _, idx := range v.Indexes {
		set[idx] = true
	}
	return set
}

// Catalog is a copy-on-write hypothetical view layer over one database:
// it shares the database's storage, schema and collected statistics
// (all immutable under planning) and overlays each variant's
// hypothetical IndexSet purely inside the optimizer that plans it.
// Nothing a sweep does writes to the shared database: hypothetical
// indexes exist only as planner advice, never as storage.Database index
// structures (only execution materializes indexes, and sweeps never
// execute).
//
// A catalog keeps nothing between sweeps: each sweep plans its distinct
// plans, prices them and drops them once its report is built. It is two
// immutable pointers, so all methods are safe for concurrent use without
// a lock.
type Catalog struct {
	db *storage.Database
	st *stats.DBStats
}

// NewCatalog builds a hypothetical catalog over the database and its
// collected statistics, which the catalog shares rather than recollects.
func NewCatalog(db *storage.Database, st *stats.DBStats) *Catalog {
	return &Catalog{db: db, st: st}
}

// prepare plans one statement under one variant. The input carries no
// EncodedPlan memo: the sweep prices it once and drops it.
func (c *Catalog) prepare(v Variant, stmt Statement) (costmodel.PlanInput, error) {
	// Building an optimizer is a struct literal over shared pointers, so
	// every plan builds its own rather than caching one per variant.
	opt := optimizer.New(c.db.Schema, c.st, v.indexSet(), optimizer.DefaultCostParams())
	p, err := opt.Plan(stmt.Query)
	if err != nil {
		return costmodel.PlanInput{}, err
	}
	return costmodel.PlanInput{
		DB:            c.db,
		Query:         stmt.Query,
		Plan:          p,
		OptimizerCost: optimizer.TotalCost(p),
	}, nil
}
