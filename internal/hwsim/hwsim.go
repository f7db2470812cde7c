// Package hwsim converts the execution engine's work counters into
// simulated query runtimes.
//
// It substitutes for the paper's physical testbed (PostgreSQL on real
// hardware with measured wall-clock runtimes). The simulator computes a
// runtime per plan operator from its work counters using per-unit costs of
// a machine profile, applies two nonlinearities that real hardware exhibits
// (hash tables spilling out of cache, working sets exceeding the buffer
// pool) and multiplies log-normal noise onto the total.
//
// The crucial property for the reproduction: the learned models never see
// the simulator's internals — only plan features and cardinalities — so
// runtime remains a noisy nonlinear function of quantities derivable from
// transferable features, exactly the setting the zero-shot model exploits.
package hwsim

import (
	"math"
	"math/rand"

	"github.com/zeroshot-db/zeroshot/internal/plan"
)

// Profile holds the per-unit costs of one simulated machine, in
// nanoseconds per unit of work.
type Profile struct {
	Name string

	SeqPageNS    float64 // sequential page read
	RandPageNS   float64 // random page read
	TupleNS      float64 // per processed tuple
	PredNS       float64 // per predicate evaluation
	HashBuildNS  float64 // per hash table insert
	HashProbeNS  float64 // per hash table probe
	IndexDescNS  float64 // per index descent
	IndexEntryNS float64 // per scanned index entry
	AggUpdateNS  float64 // per aggregate-state update
	OutputByteNS float64 // per emitted byte
	OperatorNS   float64 // fixed startup per operator
	QueryNS      float64 // fixed per-query overhead (parse, plan, client)

	// CacheBytes is the effective cache size: hash tables larger than this
	// probe more slowly (CacheMissFactor).
	CacheBytes      float64
	CacheMissFactor float64
	// BufferPoolPages is the page budget: plans touching more pages pay
	// BufferMissFactor on the excess pages.
	BufferPoolPages  float64
	BufferMissFactor float64

	// NoiseSigma is the sigma of the multiplicative log-normal noise.
	NoiseSigma float64
}

// DefaultProfile returns the reference machine used by all experiments.
// Constants are sized so typical benchmark queries take tens of
// milliseconds to seconds — the regime where the paper's training-data
// collection takes hours.
func DefaultProfile() Profile {
	return Profile{
		Name:             "reference",
		SeqPageNS:        6_000_000,
		RandPageNS:       32_000_000,
		TupleNS:          45_000,
		PredNS:           12_000,
		HashBuildNS:      70_000,
		HashProbeNS:      35_000,
		IndexDescNS:      150_000,
		IndexEntryNS:     18_000,
		AggUpdateNS:      25_000,
		OutputByteNS:     100,
		OperatorNS:       2_000_000,
		QueryNS:          20_000_000,
		CacheBytes:       512 << 10,
		CacheMissFactor:  3.0,
		BufferPoolPages:  512,
		BufferMissFactor: 3.5,
		NoiseSigma:       0.10,
	}
}

// FastProfile returns a machine roughly 4x faster than the reference, used
// by tests that exercise cross-hardware behaviour.
func FastProfile() Profile {
	p := DefaultProfile()
	p.Name = "fast"
	p.SeqPageNS /= 4
	p.RandPageNS /= 4
	p.TupleNS /= 4
	p.PredNS /= 4
	p.HashBuildNS /= 4
	p.HashProbeNS /= 4
	p.IndexDescNS /= 4
	p.IndexEntryNS /= 4
	p.AggUpdateNS /= 4
	p.QueryNS /= 2
	p.CacheBytes *= 4
	return p
}

// Simulator produces runtimes for executed plans.
type Simulator struct {
	prof Profile
	rng  *rand.Rand
}

// New creates a simulator with the profile and noise seed.
func New(prof Profile, seed int64) *Simulator {
	return &Simulator{prof: prof, rng: rand.New(rand.NewSource(seed))}
}

// nodeTime computes one operator's time in nanoseconds from its counters.
func (p Profile) nodeTime(n *plan.Node) float64 {
	w := n.Work
	t := p.OperatorNS
	t += w.TuplesIn * p.TupleNS
	t += w.PredEvals * p.PredNS
	t += w.IndexLookups * p.IndexDescNS
	t += w.IndexEntries * p.IndexEntryNS
	t += w.AggUpdates * p.AggUpdateNS
	t += w.BytesOut * p.OutputByteNS

	// Hash operators slow down once their table spills out of cache.
	probeNS := p.HashProbeNS
	buildNS := p.HashBuildNS
	tableBytes := w.HashBuild * math.Max(n.Width, 16)
	if n.Op == plan.HashAggregate {
		tableBytes = w.Groups * math.Max(n.Width, 16)
	}
	if tableBytes > p.CacheBytes && p.CacheBytes > 0 {
		probeNS *= p.CacheMissFactor
		buildNS *= p.CacheMissFactor
	}
	t += w.HashBuild * buildNS
	t += w.HashProbes * probeNS

	// Page reads: sequential for seq scans, random for index access.
	pageNS := p.SeqPageNS
	if n.Op == plan.IndexScan {
		pageNS = p.RandPageNS
	}
	t += w.PagesRead * pageNS
	return t
}

// RuntimeNoiseless returns the deterministic runtime in seconds of an
// executed plan (work counters must be filled by the engine).
func (s *Simulator) RuntimeNoiseless(root *plan.Node) float64 {
	totalNS := s.prof.QueryNS
	totalPages := 0.0
	root.Walk(func(n *plan.Node) {
		totalNS += s.prof.nodeTime(n)
		totalPages += n.Work.PagesRead
	})
	// Buffer-pool pressure: pages beyond the pool budget are re-read from
	// slower storage.
	if s.prof.BufferPoolPages > 0 && totalPages > s.prof.BufferPoolPages {
		excess := totalPages - s.prof.BufferPoolPages
		totalNS += excess * s.prof.SeqPageNS * (s.prof.BufferMissFactor - 1)
	}
	return totalNS / 1e9
}

// Runtime returns the runtime in seconds with multiplicative log-normal
// noise applied, modelling run-to-run variance of real measurements.
func (s *Simulator) Runtime(root *plan.Node) float64 {
	base := s.RuntimeNoiseless(root)
	if s.prof.NoiseSigma <= 0 {
		return base
	}
	noise := math.Exp(s.rng.NormFloat64() * s.prof.NoiseSigma)
	return base * noise
}

// CollectionHours converts a set of per-query runtimes (seconds) into the
// total workload-execution time in hours — the paper's Figure 3 panel 4
// metric for the cost of collecting training data.
func CollectionHours(runtimes []float64) float64 {
	total := 0.0
	for _, r := range runtimes {
		total += r
	}
	return total / 3600
}

// PeakMemoryBytes estimates the peak working-set size of an executed plan
// from its work counters: the hash tables of joins and aggregates that are
// live simultaneously (summed, since build sides coexist up the pipeline)
// plus the largest materialized intermediate. This is the resource target
// of the paper's Section 4.3 extension ("predict not only the runtime but
// also other aspects such as resource consumption").
func PeakMemoryBytes(root *plan.Node) float64 {
	tables := 0.0
	maxIntermediate := 0.0
	root.Walk(func(n *plan.Node) {
		w := math.Max(n.Width, 16)
		switch n.Op {
		case plan.HashJoin:
			tables += n.Work.HashBuild * w
		case plan.HashAggregate:
			tables += n.Work.Groups * w
		}
		if n.Work.BytesOut > maxIntermediate {
			maxIntermediate = n.Work.BytesOut
		}
	})
	const fixedOverhead = 1 << 20 // executor bookkeeping
	return tables + maxIntermediate + fixedOverhead
}

// Descriptor returns the transferable relative features of the profile
// versus the reference machine: speeds as reference/this ratios (1 = equal,
// 2 = twice as fast) and capacities in absolute units. These feed the
// encoding's hardware extension for cross-hardware predictions.
func (p Profile) Descriptor() (relCPU, relSeqIO, relRandIO, cacheMB, poolPages float64) {
	ref := DefaultProfile()
	return ref.TupleNS / p.TupleNS,
		ref.SeqPageNS / p.SeqPageNS,
		ref.RandPageNS / p.RandPageNS,
		p.CacheBytes / (1 << 20),
		p.BufferPoolPages
}
