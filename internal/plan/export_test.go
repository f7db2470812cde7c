package plan

// Test-only surface: the counter arithmetic the package's tests pin, which
// no program calls.

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.PagesRead += other.PagesRead
	c.TuplesIn += other.TuplesIn
	c.TuplesOut += other.TuplesOut
	c.PredEvals += other.PredEvals
	c.HashBuild += other.HashBuild
	c.HashProbes += other.HashProbes
	c.IndexLookups += other.IndexLookups
	c.IndexEntries += other.IndexEntries
	c.AggUpdates += other.AggUpdates
	c.Groups += other.Groups
	c.BytesOut += other.BytesOut
}
