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
// or unresolvable candidate, or a statement that fails the pipeline
// wraps ErrBadQuery (an advise request with a broken workload should
// error loudly, not silently drop work). A canceled context returns the
// context's error bare — including mid-sweep, between planning steps.
// Per-(variant × statement) pricing failures stay structured inside the
// report and do not fail the request.
//
// Workload statements run through the database's regular prepare
// pipeline first, so the sweep warms the same plan cache predictions
// use and reuses it on repeats.
func (s *Session) WhatIf(ctx context.Context, dbName, model string, req whatif.Request) (*whatif.Report, error) {
	s.requests.Inc()
	d, err := s.database(dbName)
	if err != nil {
		s.errs.Inc()
		return nil, err
	}
	est, err := s.estimator(model)
	if err != nil {
		s.errs.Inc()
		return nil, err
	}
	if len(req.SQL) == 0 {
		s.errs.Inc()
		return nil, fmt.Errorf("%w: %w", whatif.ErrEmptyWorkload, ErrBadQuery)
	}

	// Parse and baseline-plan the workload through the regular pipeline;
	// the parsed queries feed enumeration and the sweep.
	stmts := make([]whatif.Statement, len(req.SQL))
	queries := make([]*query.Query, len(req.SQL))
	for i, sql := range req.SQL {
		in, _, fp, err := d.prepare(ctx, sql, nil)
		if err != nil {
			if !canceled(err) {
				s.errs.Inc()
				err = fmt.Errorf("statement %d: %w", i, err)
			}
			return nil, err
		}
		stmts[i] = whatif.Statement{SQL: sql, Fingerprint: fp, Query: in.Query}
		queries[i] = in.Query
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
	rep, err := d.catalog(s.cfg.PlanCacheSize).Sweep(ctx, est, stmts, variants)
	s.sweepLat.Observe(time.Since(start))
	if err != nil {
		if !canceled(err) {
			s.errs.Inc()
		}
		return nil, err
	}
	s.sweeps.Inc()
	s.sweepSizes.Observe(float64(rep.Items))
	rep.Database = d.name
	rep.Model = est.Name()
	rep.Candidates = cands
	return rep, nil
}
