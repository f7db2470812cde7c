package costmodel

import (
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// EncodedPlan memoizes the graph encoding of one physical plan, keyed by
// the content identity of the encoder that produced it (encoding.Key:
// schema fingerprint, cardinality source, hardware). It rides along
// inside a PlanInput: the serving pipeline attaches one to every input
// it retains in a plan cache, so a repeated query shape pays
// PlanEncoder.Encode once and every later prediction — single, batched,
// or fused — reuses the graph. A fine-tuned clone or a reloaded bundle
// has the same key as its parent and hits the parent's graph, because a
// graph depends on no learned state.
//
// The memo holds one key, one graph and one answer. One slot is enough
// because a session attaches at most one zero-shot estimator: its Name
// is a constant and models are keyed by name, so every generation that
// passes over an entry shares one key. An estimator with another key (a
// second cardinality source or hardware descriptor, such as an
// activated bundle that changed it) misses once, encodes, and takes the
// slot; the memo never grows and needs no eviction. Graphs are treated
// as immutable by every consumer — the batch packer, for inference and
// for training, only reads them — which is what makes sharing one graph
// across concurrent predictions safe.
//
// The answer is the seconds the fused pass returned for the slot's
// graph under the weights of one zeroshot.Model.Version. The pass is
// deterministic per (graph, weights), so while the serving model still
// reports that version the answer is the bits a fresh pass would
// return, and a repeated statement costs one locked read instead of a
// forward pass. The answer is overwritten in place and lives and dies
// with its entry.
type EncodedPlan struct {
	mu    sync.Mutex
	key   encoding.Key
	graph *encoding.Graph
	// version and seconds are the answer slot; version 0 (never a
	// model's) means empty.
	version uint64
	seconds float64
}

// NewEncodedPlan returns an empty memo ready to attach to a PlanInput.
func NewEncodedPlan() *EncodedPlan { return &EncodedPlan{} }

// resolve returns, under one lock, the answer memoized for the encoder
// key under weights version (answered), or else the memoized graph (nil
// when the slot holds another key's). Version 0 takes no answer. Keys
// are interned, so the compare is one pointer compare.
func (m *EncodedPlan) resolve(key encoding.Key, version uint64) (g *encoding.Graph, seconds float64, answered bool) {
	if m == nil {
		return nil, 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.key != key {
		return nil, 0, false
	}
	if version != 0 && m.version == version {
		return nil, m.seconds, true
	}
	return m.graph, 0, false
}

// store records the graph for the key. A graph under another key takes
// the slot and drops its answer. Concurrent stores for the same key are
// benign: both graphs encode the same plan, and last-write-wins keeps
// exactly one alive.
func (m *EncodedPlan) store(key encoding.Key, g *encoding.Graph) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.key != key {
		m.key, m.version = key, 0
	}
	m.graph = g
}

// answer records seconds as the prediction for the key's graph under
// weights version, in place of whatever the slot held. An answer for a
// key that has since lost the slot is dropped. Stores racing each other
// are benign: an answer under a version the model has left is never
// matched again, since versions are never reissued.
func (m *EncodedPlan) answer(key encoding.Key, version uint64, seconds float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.key == key {
		m.version, m.seconds = version, seconds
	}
}
