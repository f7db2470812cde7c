package sim

import (
	"context"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// FeedbackRecord is one feedback a Replica accepted.
type FeedbackRecord struct {
	DB          string
	Fingerprint string
	ActualSec   float64
}

// Replica is the harness's scripted in-process backend: answers are an
// instant, pure function of (database, SQL) — so any two replicas agree
// bitwise, the property the mirrored cluster relies on. It records what
// it served so the harness can check where requests and feedback
// actually landed. It has no fault switches of its own: the harness
// wraps it in Faulty like any other backend.
type Replica struct {
	name string

	mu        sync.Mutex
	predicts  map[string]int // db -> served predictions
	feedbacks []FeedbackRecord
}

var _ cluster.Backend = (*Replica)(nil)

// NewReplica returns a scripted replica.
func NewReplica(name string) *Replica {
	return &Replica{name: name, predicts: map[string]int{}}
}

// LastFeedback returns the most recently accepted feedback (zero value
// when none).
func (r *Replica) LastFeedback() FeedbackRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.feedbacks) == 0 {
		return FeedbackRecord{}
	}
	return r.feedbacks[len(r.feedbacks)-1]
}

// predictValue is the pure deterministic answer function shared by all
// replicas.
func predictValue(db, sql string) float64 {
	h := fnv.New64a()
	io.WriteString(h, db)
	io.WriteString(h, "\x00")
	io.WriteString(h, sql)
	return float64(h.Sum64()%10_000_000) / 1e7
}

// Name implements cluster.Backend.
func (r *Replica) Name() string { return r.name }

// Predict implements cluster.Backend.
func (r *Replica) Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error) {
	r.mu.Lock()
	r.predicts[db]++
	r.mu.Unlock()
	return serving.Prediction{
		Database:    db,
		Model:       model,
		RuntimeSec:  predictValue(db, sql),
		Fingerprint: costmodel.Fingerprint(sql),
	}, nil
}

// PredictBatch implements cluster.Backend.
func (r *Replica) PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error) {
	res := serving.BatchResult{Database: db, Model: model, Items: make([]serving.BatchItem, len(sqls))}
	r.mu.Lock()
	r.predicts[db] += len(sqls)
	r.mu.Unlock()
	for i, sql := range sqls {
		res.Items[i].RuntimeSec = predictValue(db, sql)
	}
	return res, nil
}

// WhatIf implements cluster.Backend: a deterministic stub — each
// candidate variant's total is the pure per-statement answer scaled by
// a candidate-derived factor, so any two replicas rank identically and
// the harness can assert where sweeps landed via Predicts.
func (r *Replica) WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error) {
	r.mu.Lock()
	r.predicts[db] += len(req.SQL) * (len(req.Candidates) + 1)
	r.mu.Unlock()
	base := 0.0
	for _, sql := range req.SQL {
		base += predictValue(db, sql)
	}
	rep := &whatif.Report{
		Database: db,
		Model:    model,
		Baseline: whatif.VariantResult{Name: "baseline", TotalSec: base},
		Items:    len(req.SQL) * (len(req.Candidates) + 1),
	}
	for _, c := range req.Candidates {
		scale := 0.5 + float64(fnvHash(c)%50)/100 // deterministic in [0.5, 1)
		rep.Variants = append(rep.Variants, whatif.VariantResult{
			Name:     c,
			Indexes:  []string{c},
			TotalSec: base * scale,
			SpeedupX: 1 / scale,
		})
	}
	sort.Slice(rep.Variants, func(a, b int) bool {
		if rep.Variants[a].TotalSec != rep.Variants[b].TotalSec {
			return rep.Variants[a].TotalSec < rep.Variants[b].TotalSec
		}
		return rep.Variants[a].Name < rep.Variants[b].Name
	})
	if len(rep.Variants) > 0 && rep.Variants[0].TotalSec < base {
		rep.Recommendation = rep.Variants[0].Name
	}
	return rep, nil
}

// fnvHash hashes one string for the scripted what-if answer function.
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// Feedback implements cluster.Backend.
func (r *Replica) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	r.mu.Lock()
	r.feedbacks = append(r.feedbacks, FeedbackRecord{DB: db, Fingerprint: fingerprint, ActualSec: actualSec})
	r.mu.Unlock()
	return nil
}

// Databases implements cluster.Backend: scripted replicas claim any
// database (the mirrored topology).
func (r *Replica) Databases(ctx context.Context) ([]serving.DatabaseInfo, error) {
	return nil, nil
}

// Stats implements cluster.Backend.
func (r *Replica) Stats(ctx context.Context) (serving.Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := int64(0)
	for _, n := range r.predicts {
		total += int64(n)
	}
	return serving.Stats{Requests: total}, nil
}

// Health implements cluster.Backend: a scripted replica is always live
// (Faulty decides whether the probe gets through).
func (r *Replica) Health(ctx context.Context) error { return nil }

// Close implements cluster.Backend.
func (r *Replica) Close() error { return nil }
