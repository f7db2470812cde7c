package whatif

import (
	"sort"
	"strings"

	"github.com/zeroshot-db/zeroshot/internal/optimizer"
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
