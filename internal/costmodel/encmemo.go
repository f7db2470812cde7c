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
//
// Beside each graph the entry keeps one answer: the seconds the fused
// pass returned for that graph under the weights of one
// zeroshot.Model.Version. The pass is deterministic per (graph,
// weights), so while the serving model still reports that version the
// answer is the bits a fresh pass would return, and a repeated
// statement costs one locked read instead of a forward pass. The slot is
// overwritten in place and lives and dies with its entry — no new
// entries, no eviction. It holds one answer, not one per model: two
// zero-shot models with the same cardinality source predicting over one
// memo take turns overwriting it and simply miss.
type EncodedPlan struct {
	mu      sync.Mutex
	entries []encodedGraph
}

type encodedGraph struct {
	key   encoding.Key
	graph *encoding.Graph
	// version and seconds are the answer slot; version 0 (never a
	// model's) means empty.
	version uint64
	seconds float64
}

// NewEncodedPlan returns an empty memo ready to attach to a PlanInput.
func NewEncodedPlan() *EncodedPlan { return &EncodedPlan{} }

// find returns the entry for the key, or nil; the caller holds mu. Keys
// are interned, so each compare is one pointer compare.
func (m *EncodedPlan) find(key encoding.Key) *encodedGraph {
	for i := range m.entries {
		if m.entries[i].key == key {
			return &m.entries[i]
		}
	}
	return nil
}

// resolve returns, under one lock, the answer memoized for the encoder
// key under weights version (answered), or else the memoized graph (nil
// when the key has none). Version 0 takes no answer.
func (m *EncodedPlan) resolve(key encoding.Key, version uint64) (g *encoding.Graph, seconds float64, answered bool) {
	if m == nil {
		return nil, 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.find(key)
	if e == nil {
		return nil, 0, false
	}
	if version != 0 && e.version == version {
		return nil, e.seconds, true
	}
	return e.graph, 0, false
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

// answer records seconds as the prediction for the key's graph under
// weights version, in place of whatever the slot held. Stores racing
// each other are benign: an answer under a version the model has left
// is never matched again, since versions are never reissued.
func (m *EncodedPlan) answer(key encoding.Key, version uint64, seconds float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(key); e != nil {
		e.version, e.seconds = version, seconds
	}
}
