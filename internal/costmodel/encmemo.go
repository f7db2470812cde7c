package costmodel

import (
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// EncodedPlan memoizes the graph encodings of one physical plan, keyed by
// the content identity of the encoder that produced them (encoding.Key:
// schema fingerprint, cardinality source, hardware). It rides along
// inside a PlanInput: the serving pipeline attaches one to every input
// it retains in a plan cache, so a repeated query shape pays
// PlanEncoder.Encode once and every later prediction — single, batched,
// or fused — reuses the graph. Two estimators with different cardinality
// sources encode the same plan differently and get separate entries; a
// fine-tuned clone or a reloaded bundle has the same key as its parent
// and hits the parent's graph, because a graph depends on no learned
// state.
//
// The memo therefore holds one graph per distinct encoder configuration
// attached (one or two in practice), however many model generations
// pass over it, and needs no eviction of its own. Graphs are treated as
// immutable by every consumer — the batch packer, for inference and
// for training, only reads them — which is what makes sharing one graph
// across concurrent predictions safe.
type EncodedPlan struct {
	mu      sync.Mutex
	entries []encodedGraph
}

type encodedGraph struct {
	key   encoding.Key
	graph *encoding.Graph
}

// NewEncodedPlan returns an empty memo ready to attach to a PlanInput.
func NewEncodedPlan() *EncodedPlan { return &EncodedPlan{} }

// find returns the entry for the key, or nil; the caller holds mu. Keys
// compare with ==: the fingerprints of one schema share a backing array,
// so the hot-path compare never reads the string.
func (m *EncodedPlan) find(key encoding.Key) *encodedGraph {
	for i := range m.entries {
		if m.entries[i].key == key {
			return &m.entries[i]
		}
	}
	return nil
}

// lookup returns the memoized graph for the encoder key, if present.
func (m *EncodedPlan) lookup(key encoding.Key) (*encoding.Graph, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(key); e != nil {
		return e.graph, true
	}
	return nil, false
}

// store records the graph for the key. Concurrent stores for the same
// key are benign: both graphs encode the same plan, and last-write-wins
// keeps exactly one alive.
func (m *EncodedPlan) store(key encoding.Key, g *encoding.Graph) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(key); e != nil {
		e.graph = g
		return
	}
	m.entries = append(m.entries, encodedGraph{key: key, graph: g})
}
