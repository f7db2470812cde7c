package sim

import "context"

// Run executes the whole configured workload and returns the result.
// Call once; the router is closed before returning. Incremental drivers
// use Step and Finish instead.
func (s *Sim) Run(ctx context.Context) Result {
	s.Step(ctx, s.cfg.Requests-s.step)
	return s.Finish(ctx)
}

// Predicts returns how many predictions this replica served for db.
func (r *Replica) Predicts(db string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.predicts[db]
}

// Feedbacks returns a copy of every feedback accepted, in order.
func (r *Replica) Feedbacks() []FeedbackRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FeedbackRecord, len(r.feedbacks))
	copy(out, r.feedbacks)
	return out
}
