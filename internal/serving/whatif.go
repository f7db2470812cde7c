package serving

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// WhatIf runs one what-if sweep against the named database and model
// (either may be empty when unambiguous): enumerate or validate index
// candidates, plan the workload under the baseline and one hypothetical
// variant per candidate, price the whole cross product through the
// estimator's fused batch path, and return the candidates ranked by
// predicted workload runtime.
//
// Request-level failures map onto the session's sentinels: an unknown
// database or model wraps ErrNotFound; an empty workload, a malformed
// or unresolvable candidate, or a statement that fails to parse wraps
// ErrBadQuery (an advise request with a broken workload should
// error loudly, not silently drop work). A canceled context returns the
// context's error bare — including mid-sweep, between planning steps.
// Per-(variant × statement) planning and pricing failures stay
// structured inside the report and do not fail the request.
//
// Workload statements only pass the pipeline's parse stage: the sweep
// is the one planner and keeps no plan.
// The plan cache is never touched, so a statement seen only by what-if
// misses on its first predict, and feedback joins it only after one.
func (s *Session) WhatIf(ctx context.Context, dbName, model string, req whatif.Request) (*whatif.Report, error) {
	d, est, err := s.begin(dbName, model)
	if err != nil {
		return nil, err
	}
	if len(req.SQL) == 0 {
		s.errs.Inc()
		return nil, fmt.Errorf("%w: %w", whatif.ErrEmptyWorkload, ErrBadQuery)
	}

	// The parsed queries feed enumeration and the sweep.
	stmts := make([]whatif.Statement, len(req.SQL))
	queries := make([]*query.Query, len(req.SQL))
	for i, sql := range req.SQL {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q, err := d.parse(sql, nil)
		if err != nil {
			s.countErr(err)
			return nil, fmt.Errorf("statement %d: %w", i, err)
		}
		stmts[i] = whatif.Statement{SQL: sql, Query: q}
		queries[i] = q
	}

	cands, err := whatif.Enumerate(d.db.Schema, queries, req.Candidates, req.MaxCandidates)
	if err != nil {
		s.errs.Inc()
		if errors.Is(err, whatif.ErrBadCandidate) {
			err = fmt.Errorf("%w: %w", err, ErrBadQuery)
		}
		return nil, err
	}
	variants := whatif.Variants(cands)
	if len(variants) == 0 {
		s.errs.Inc()
		return nil, fmt.Errorf("%w: no index candidates for this workload: %w", whatif.ErrNoVariants, ErrBadQuery)
	}

	start := time.Now()
	rep, err := whatif.Sweep(ctx, d.db, d.st, est, stmts, variants)
	s.sweepLat.Observe(time.Since(start))
	if err != nil {
		s.countErr(err)
		return nil, err
	}
	s.sweepSizes.Observe(float64(rep.Items))
	rep.Database = d.name
	rep.Model = est.Name()
	rep.Candidates = cands
	return rep, nil
}
