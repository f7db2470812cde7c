package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// opKind is the endpoint a request goes to.
type opKind int

const (
	opPredict opKind = iota // POST /v1/predict, one statement
	opBatch                 // POST /v1/predict_batch
	opWhatIf                // POST /v1/whatif
)

// whatIfCandidates caps a sweep at 15 indexes plus the baseline, so 16
// statements price at most 256 (variant x statement) pairs.
const whatIfCandidates = 15

// request is one generated operation.
type request struct {
	kind opKind
	db   string
	sqls []string
}

func (r request) path() string {
	switch r.kind {
	case opBatch:
		return "/v1/predict_batch"
	case opWhatIf:
		return "/v1/whatif"
	}
	return "/v1/predict"
}

// wireRequest is the JSON body of all three endpoints: "sql" is one
// statement for /v1/predict and a list for the other two.
type wireRequest struct {
	DB            string `json:"db"`
	SQL           any    `json:"sql"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
}

func (r request) body() []byte {
	w := wireRequest{DB: r.db, SQL: r.sqls}
	switch r.kind {
	case opPredict:
		w.SQL = r.sqls[0]
	case opWhatIf:
		w.MaxCandidates = whatIfCandidates
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

// digestPrefix is how many leading requests of a stream are hashed into
// its identity: enough to tell two seeds apart, few enough that even the
// slowest workload draws them all.
const digestPrefix = 256

// stream hands out a workload's requests in an order fixed by the seed.
// The load connections share it; which connection sends a request may
// vary between runs, the sequence does not.
type stream struct {
	mu     sync.Mutex
	gen    func() request
	sum    hash.Hash
	hashed int
}

func newStream(gen func() request) *stream {
	return &stream{gen: gen, sum: sha256.New()}
}

func (s *stream) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draw()
}

// draw generates the next request; callers hold s.mu.
func (s *stream) draw() request {
	r := s.gen()
	if s.hashed < digestPrefix {
		s.sum.Write([]byte(r.path()))
		s.sum.Write(r.body())
		s.hashed++
	}
	return r
}

// digest identifies the stream by its first digestPrefix requests, drawing
// them if the run has not yet.
func (s *stream) digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.hashed < digestPrefix {
		s.draw()
	}
	return hex.EncodeToString(s.sum.Sum(nil))
}

// distinct draws statements from a generator and keeps those whose
// plan-cache key has not been seen: the cache is keyed by
// costmodel.Fingerprint, so that is what "distinct" has to mean.
type distinct struct {
	gen  *query.Generator
	seen map[string]bool
	buf  []string
}

func newDistinct(db *storage.Database, seed int64) *distinct {
	return &distinct{
		gen:  query.NewGenerator(db, query.DefaultGenConfig(), seed),
		seen: map[string]bool{},
	}
}

// refill generates another chunk and keeps its never-seen statements.
func (d *distinct) refill() {
	qs, err := d.gen.Generate(1024)
	if err != nil {
		panic(fmt.Sprintf("query generator: %v", err)) // an invalid generated query is a repo bug
	}
	for _, q := range qs {
		sql := q.SQL()
		if fp := costmodel.Fingerprint(sql); !d.seen[fp] {
			d.seen[fp] = true
			d.buf = append(d.buf, sql)
		}
	}
}

// take returns the next never-seen statement.
func (d *distinct) take() string {
	for len(d.buf) == 0 {
		d.refill()
	}
	sql := d.buf[0]
	d.buf = d.buf[1:]
	return sql
}

// fill pre-generates n statements so the timed phase does not pay for
// generation in bursts.
func (d *distinct) fill(n int) {
	for len(d.buf) < n {
		d.refill()
	}
}

// pool is a fixed set of n distinct statements: the same for every seed,
// so what a seed varies is the order of requests, not how expensive the
// hot statements happen to be.
func pool(db *storage.Database, n int, poolSeed int64) []string {
	d := newDistinct(db, poolSeed)
	out := make([]string, n)
	for i := range out {
		out[i] = d.take()
	}
	return out
}

// zipf draws pool indexes with the skew of a hot working set (s = 1.1).
func zipf(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
