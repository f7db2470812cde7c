package costmodel

import (
	"container/list"
	"strings"
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// featEntry lazily materializes the per-database featurization context the
// one-hot baselines need: the database's vocabulary and its statistics.
type featEntry struct {
	once  sync.Once
	vocab *encoding.Vocab
	st    *stats.DBStats
}

// featCache caches featurization contexts per database so that concurrent
// PredictBatch calls collect statistics at most once per database. Keys
// are database pointers: the experiment harness and the serving layer both
// hold databases for the lifetime of the estimator.
type featCache struct {
	m sync.Map // *storage.Database -> *featEntry
}

// get returns the (possibly freshly built) context for db.
func (c *featCache) get(db *storage.Database) (*encoding.Vocab, *stats.DBStats) {
	e, _ := c.m.LoadOrStore(db, &featEntry{})
	en := e.(*featEntry)
	en.once.Do(func() {
		en.vocab = encoding.NewVocab(db.Schema)
		en.st = stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	})
	return en.vocab, en.st
}

// sqlKeywords are the words Fingerprint case-normalizes (the SQL subset
// this repository parses plus the usual neighbors, so harmless
// reformattings of future grammar share entries too), lowercase and
// indexed by length.
var sqlKeywords = [...][]string{
	2: {"as", "by", "in", "is", "on", "or"},
	3: {"and", "asc", "avg", "max", "min", "not", "sum"},
	4: {"desc", "from", "join", "left", "like", "null"},
	5: {"count", "group", "inner", "limit", "order", "outer", "right", "where"},
	6: {"having", "select"},
	7: {"between"},
	8: {"distinct"},
}

// isKeyword reports whether word is a SQL keyword in any letter case. It
// compares in place: no lowered copy, no map probe.
func isKeyword(word string) bool {
	if len(word) >= len(sqlKeywords) {
		return false
	}
next:
	for _, kw := range sqlKeywords[len(word)] {
		for i := 0; i < len(kw); i++ {
			c := word[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != kw[i] {
				continue next
			}
		}
		return true
	}
	return false
}

// Fingerprint canonicalizes one SQL text into a plan-cache key: outside
// string literals it collapses whitespace runs to single spaces, trims
// the ends, and uppercases SQL keywords — so reformattings and
// keyword-case variants (`SELECT …` vs `select …`) of the same statement
// share a cache entry. Everything else is preserved: identifiers keep
// their case (the parser lowercases them itself, so distinct statements
// stay distinct), and quoted literals are copied verbatim — whitespace
// included — because cached plans embed literal-dependent selectivity
// and cost estimates, so `'a b'` and `'a  b'` (or `'abc'` and `'ABC'`)
// must never collide.
//
// It runs on every request, so it allocates the result and nothing else.
func Fingerprint(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	// A whitespace run becomes one pending space, written only when a
	// further token follows (and only after the first token): leading
	// and trailing runs vanish without any post-hoc trimming, which
	// must not exist — a final TrimSuffix used to eat a space that was
	// literal *content* when the input ended inside an unterminated
	// literal, breaking Fingerprint(Fingerprint(x)) == Fingerprint(x)
	// (found by fuzzing).
	pendingSpace := false
	writePending := func() {
		if pendingSpace {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
		}
	}
	for i := 0; i < len(sql); {
		c := sql[i]
		switch {
		case c == '\'':
			// String literal: copy through the closing quote untouched.
			writePending()
			j := i + 1
			for j < len(sql) && sql[j] != '\'' {
				j++
			}
			if j < len(sql) {
				j++
			}
			b.WriteString(sql[i:j])
			i = j
		case isSpaceByte(c):
			for i < len(sql) && isSpaceByte(sql[i]) {
				i++
			}
			pendingSpace = true
		case isWordByte(c):
			writePending()
			j := i
			for j < len(sql) && isWordByte(sql[j]) {
				j++
			}
			word := sql[i:j]
			if isKeyword(word) {
				for k := 0; k < len(word); k++ {
					c := word[k]
					if 'a' <= c && c <= 'z' {
						c -= 'a' - 'A'
					}
					b.WriteByte(c)
				}
			} else {
				b.WriteString(word)
			}
			i = j
		default:
			writePending()
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

// isWordByte reports whether b can be part of a SQL word (keyword or
// identifier).
func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '_'
}

// isSpaceByte matches the whitespace strings.Fields would split on.
func isSpaceByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\v' || b == '\f'
}

// PlanCacheStats is a point-in-time view of one PlanCache.
type PlanCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// planCacheEntry is one cached prepared input keyed by its fingerprint.
type planCacheEntry struct {
	fp string
	in PlanInput
}

// PlanCache is a bounded LRU of prepared prediction inputs keyed by SQL
// fingerprint. It is the serving layer's complement to featCache: where
// featCache memoizes per-*database* featurization context inside the
// adapters, PlanCache memoizes the per-*statement* parse→optimize work
// (the PlanInput) so repeated query shapes skip straight to prediction.
// One PlanCache serves one database; cached PlanInputs carry that
// database's pointer and must not outlive it. Safe for concurrent use.
type PlanCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List               // front = most recently used
	entries   map[string]*list.Element // fingerprint -> *planCacheEntry
	hits      int64
	misses    int64
	evictions int64
}

// DefaultPlanCacheSize bounds a PlanCache when the caller passes a
// non-positive capacity.
const DefaultPlanCacheSize = 4096

// NewPlanCache returns an empty cache holding at most capacity entries
// (DefaultPlanCacheSize if capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached input for a fingerprint, marking it most
// recently used.
func (c *PlanCache) Get(fp string) (PlanInput, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		c.misses++
		return PlanInput{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry).in, true
}

// Lookup is Fingerprint followed by Get, for a cache whose every key is a
// Fingerprint output, with the fingerprint skipped when sql is already a
// key. It first probes the raw text. That is sound because Fingerprint is
// idempotent (FuzzFingerprint checks it): a text equal to a key k
// fingerprints to Fingerprint(k) = k, so the raw hit finds the entry
// Fingerprint+Get would find and returns the same fingerprint, byte for
// byte. On a miss it fingerprints outside the lock and probes again only
// when that changed the text; a canonical miss is one probe and one
// compare. Either way a lookup counts exactly one hit or one miss, so
// Stats reads as it would under Fingerprint+Get.
func (c *PlanCache) Lookup(sql string) (in PlanInput, fp string, ok bool) {
	c.mu.Lock()
	if el, hit := c.entries[sql]; hit {
		c.hits++
		c.ll.MoveToFront(el)
		in = el.Value.(*planCacheEntry).in
		c.mu.Unlock()
		return in, sql, true
	}
	c.mu.Unlock()
	fp = Fingerprint(sql)
	if fp == sql {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return PlanInput{}, fp, false
	}
	in, ok = c.Get(fp)
	return in, fp, ok
}

// Peek returns the cached input for a fingerprint without promoting it
// in the LRU order or touching the hit/miss counters. The feedback path
// of the adaptation subsystem joins observed runtimes against retained
// plans this way — a feedback lookup is bookkeeping, not traffic, and
// must not distort the cache's stats or eviction behavior.
func (c *PlanCache) Peek(fp string) (PlanInput, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return PlanInput{}, false
	}
	return el.Value.(*planCacheEntry).in, true
}

// Put inserts (or refreshes) the input under a fingerprint, evicting the
// least recently used entry when full.
func (c *PlanCache) Put(fp string, in PlanInput) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		el.Value.(*planCacheEntry).in = in
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*planCacheEntry).fp)
		c.evictions++
	}
	c.entries[fp] = c.ll.PushFront(&planCacheEntry{fp: fp, in: in})
}

// Stats reports the cache's lifetime hit/miss/eviction counts and its
// current occupancy.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.cap,
	}
}
