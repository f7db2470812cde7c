// Package whatif turns the zero-shot cost model into a served index
// advisor: the paper's Section 4.1 "what-if" mode as a subsystem instead
// of an example. A sweep prices a workload against hypothetical
// index/config variants of a database — without executing anything and
// without mutating the database — and returns the variants ranked by
// predicted workload runtime.
//
// The package has two parts:
//
//   - a candidate enumerator (Enumerate) that proposes index candidates
//     from the schema's foreign keys and the workload's filter columns,
//     or validates an explicit user-supplied list;
//   - a sweep (Sweep) over a database and its collected statistics. It
//     overlays each variant's hypothetical indexes purely at the planner
//     level: the optimizer's IndexSet is advice to the planner, never a
//     storage mutation, so concurrent sweeps share one immutable
//     database. It answers every (variant × query) pair but plans each
//     distinct plan once — a variant is first restricted to the indexes
//     the query's plan can depend on (optimizer.RelevantIndexes) —
//     prices the distinct plans through ONE Estimator.PredictBatch call
//     (the fused forward pass for the zero-shot model), and assembles
//     per-query and workload-level speedups against the always-included
//     baseline variant.
//
// Sweeps are the system's first naturally huge batches: a modest advise
// request (16 candidates × 64 queries) answers over a thousand pairs
// from the few hundred plans that differ, in one fused pass.
package whatif

import (
	"errors"

	"github.com/zeroshot-db/zeroshot/internal/query"
)

// Sentinel errors front ends map to request-level failures (wrapped;
// test with errors.Is).
var (
	// ErrEmptyWorkload marks a sweep request with no statements.
	ErrEmptyWorkload = errors.New("whatif: empty workload")
	// ErrBadCandidate marks a malformed or unresolvable explicit
	// candidate.
	ErrBadCandidate = errors.New("whatif: bad candidate")
	// ErrNoVariants marks a sweep request with no variants to compare.
	ErrNoVariants = errors.New("whatif: no variants")
)

// Request is the wire form of one what-if sweep: the workload to price
// and optional explicit index candidates. An empty Candidates list asks
// the enumerator to propose candidates from the schema and workload.
type Request struct {
	// SQL is the workload: one statement per entry.
	SQL []string `json:"sql"`
	// Candidates optionally names explicit index candidates as
	// "table.column". When set, each entry is validated strictly against
	// the schema and enumeration is skipped.
	Candidates []string `json:"candidates,omitempty"`
	// MaxCandidates caps the candidate set (default
	// DefaultMaxCandidates).
	MaxCandidates int `json:"max_candidates,omitempty"`
}

// Candidate is one proposed index.
type Candidate struct {
	// Index is the candidate's canonical "table.column" key.
	Index string `json:"index"`
	// Source records where the candidate came from: "user" (explicit),
	// "fk" (foreign-key join column) or "filter" (workload predicate
	// column).
	Source string `json:"source"`
}

// QueryResult is one statement's outcome under one variant. Errors are
// structured per item: a statement that fails to plan or price under one
// variant carries its own error and the rest of the sweep still prices.
type QueryResult struct {
	SQL          string  `json:"sql"`
	PredictedSec float64 `json:"predicted_sec"`
	// BaselineSec is the same statement's prediction under the baseline
	// variant, repeated here so per-query speedups read without joining
	// against the baseline block.
	BaselineSec float64 `json:"baseline_sec,omitempty"`
	// SpeedupX is BaselineSec / PredictedSec (>1 means the variant
	// helps this query); 0 when either side errored.
	SpeedupX float64 `json:"speedup_x,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// VariantResult is one variant's priced workload.
type VariantResult struct {
	// Name identifies the variant; the baseline is named "baseline".
	Name string `json:"name"`
	// Indexes lists the variant's hypothetical indexes.
	Indexes []string `json:"indexes,omitempty"`
	// TotalSec is the predicted workload runtime: the sum of predicted
	// runtimes over the statements that priced successfully.
	TotalSec float64 `json:"total_sec"`
	// SpeedupX is the workload-level speedup against the baseline,
	// computed over the statements that priced successfully under BOTH
	// variants so partial failures cannot skew the ratio; 0 when no
	// statement is shared.
	SpeedupX float64 `json:"speedup_x,omitempty"`
	// Queries aligns with the sweep's statements.
	Queries []QueryResult `json:"queries"`
	// Errors counts this variant's per-statement failures.
	Errors int `json:"errors,omitempty"`
}

// Report is one answered sweep: the candidates considered, the baseline,
// and the hypothetical variants ranked by predicted workload runtime
// (fastest first, ties broken by name).
type Report struct {
	Database   string      `json:"db,omitempty"`
	Model      string      `json:"model,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	// Baseline is the workload priced with no hypothetical changes.
	Baseline VariantResult `json:"baseline"`
	// Variants is ranked ascending by TotalSec.
	Variants []VariantResult `json:"variants"`
	// Items is the number of (variant × statement) pairs priced,
	// baseline included. Pairs that share a plan share one slot of the
	// fused prediction batch, so the batch is usually smaller.
	Items int `json:"items"`
	// Recommendation names the top-ranked variant, empty when no variant
	// beats the baseline.
	Recommendation string `json:"recommendation,omitempty"`
}

// Statement is one workload entry carried through a sweep: the SQL text
// (echoed in results) and the parsed query.
type Statement struct {
	SQL   string
	Query *query.Query
}

// Statements builds sweep statements from parsed queries, rendering each
// query's SQL.
func Statements(qs []*query.Query) []Statement {
	out := make([]Statement, len(qs))
	for i, q := range qs {
		out[i] = Statement{SQL: q.SQL(), Query: q}
	}
	return out
}

// Variants builds the advisor's sweep variants: one per candidate, named
// by its index and overlaying only that index on the baseline.
func Variants(cands []Candidate) []Variant {
	out := make([]Variant, len(cands))
	for i, c := range cands {
		out[i] = Variant{Name: c.Index, Indexes: []string{c.Index}}
	}
	return out
}
