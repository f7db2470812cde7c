package costmodel

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
)

func TestFingerprint(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		same bool
	}{
		{
			name: "whitespace reformatting collapses",
			a:    "SELECT COUNT(*)   FROM title\n\tWHERE production_year > 50",
			b:    "  SELECT COUNT(*) FROM title WHERE production_year > 50 ",
			same: true,
		},
		{
			// Different literals must not collide: cached plans embed
			// literal-dependent cost estimates.
			name: "different numeric literals stay distinct",
			a:    "SELECT COUNT(*) FROM title WHERE production_year > 50",
			b:    "SELECT COUNT(*) FROM title WHERE production_year > 51",
			same: false,
		},
		{
			name: "keyword case normalizes",
			a:    "select count(*) from title where production_year > 50",
			b:    "SELECT COUNT(*) FROM title WHERE production_year > 50",
			same: true,
		},
		{
			name: "mixed keyword case normalizes",
			a:    "Select Count(*) From title Where production_year > 50 And id < 9",
			b:    "SELECT COUNT(*) FROM title WHERE production_year > 50 AND id < 9",
			same: true,
		},
		{
			name: "identifier case is preserved",
			a:    "SELECT COUNT(*) FROM Title",
			b:    "SELECT COUNT(*) FROM title",
			same: false,
		},
		{
			// A keyword inside a quoted literal is data, not syntax:
			// its case must survive so distinct literals never share a
			// cached plan.
			name: "quoted literal stays case-sensitive",
			a:    "SELECT COUNT(*) FROM title WHERE kind = 'select'",
			b:    "SELECT COUNT(*) FROM title WHERE kind = 'SELECT'",
			same: false,
		},
		{
			name: "keyword case outside literal still normalizes around quotes",
			a:    "select count(*) from title where kind = 'Movie'",
			b:    "SELECT COUNT(*) FROM title WHERE kind = 'Movie'",
			same: true,
		},
		{
			// Whitespace collapsing must also stop at the quote: two
			// literals differing only in internal spacing are different
			// values.
			name: "whitespace inside literal is preserved",
			a:    "SELECT COUNT(*) FROM title WHERE kind = 'a  b'",
			b:    "SELECT COUNT(*) FROM title WHERE kind = 'a b'",
			same: false,
		},
		{
			name: "whitespace around literal still collapses",
			a:    "SELECT COUNT(*) FROM title  WHERE kind =  'a b'  ",
			b:    "SELECT COUNT(*) FROM title WHERE kind = 'a b'",
			same: true,
		},
		{
			name: "unterminated literal is copied verbatim",
			a:    "SELECT COUNT(*) FROM title WHERE kind = 'sel",
			b:    "SELECT COUNT(*) FROM title WHERE kind = 'SEL",
			same: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fa, fb := Fingerprint(tt.a), Fingerprint(tt.b)
			if tt.same && fa != fb {
				t.Fatalf("fingerprints differ:\n%q\n%q", fa, fb)
			}
			if !tt.same && fa == fb {
				t.Fatalf("fingerprints collide: %q", fa)
			}
		})
	}
}

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	in := func(cost float64) PlanInput { return PlanInput{OptimizerCost: cost} }

	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", in(1))
	c.Put("b", in(2))
	if got, ok := c.Get("a"); !ok || got.OptimizerCost != 1 {
		t.Fatalf("a = %+v ok=%v", got, ok)
	}
	// a is now most recent; inserting c evicts b.
	c.Put("c", in(3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	st := c.Stats()
	if st.Size != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", st)
	}

	// Refreshing an existing key must not grow the cache.
	c.Put("a", in(10))
	if got, _ := c.Get("a"); got.OptimizerCost != 10 {
		t.Fatalf("refresh lost: %+v", got)
	}
	if st := c.Stats(); st.Size != 2 {
		t.Fatalf("refresh grew cache: %+v", st)
	}
}

// TestPlanCachePeek checks Peek neither promotes an entry nor counts as
// traffic — the feedback join must be invisible to cache stats and LRU
// eviction order.
func TestPlanCachePeek(t *testing.T) {
	c := NewPlanCache(2)
	c.Put("a", PlanInput{OptimizerCost: 1})
	c.Put("b", PlanInput{OptimizerCost: 2})
	if in, ok := c.Peek("a"); !ok || in.OptimizerCost != 1 {
		t.Fatalf("peek a = %+v ok=%v", in, ok)
	}
	if _, ok := c.Peek("missing"); ok {
		t.Fatal("peek hit a missing entry")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peek counted as traffic: %+v", st)
	}
	// a was peeked but not promoted: inserting c must evict a (the LRU),
	// not b.
	c.Put("c", PlanInput{OptimizerCost: 3})
	if _, ok := c.Peek("a"); ok {
		t.Fatal("peek promoted entry a in LRU order")
	}
	if _, ok := c.Peek("b"); !ok {
		t.Fatal("b evicted instead of un-promoted a")
	}
}

func TestPlanCacheDefaultCapacity(t *testing.T) {
	if st := NewPlanCache(0).Stats(); st.Capacity != DefaultPlanCacheSize {
		t.Fatalf("capacity = %d, want %d", st.Capacity, DefaultPlanCacheSize)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				fp := fmt.Sprintf("q%d", (g*300+i)%100)
				var ok bool
				switch g % 3 {
				case 0:
					_, ok = c.Get(fp)
				case 1:
					_, _, ok = c.Lookup(fp)
				default:
					_, _, ok = c.Lookup(" " + fp + " ") // fingerprints to fp
				}
				if !ok {
					c.Put(fp, PlanInput{OptimizerCost: float64(i)})
				}
				_ = c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Size > 64 || st.Hits+st.Misses != 8*300 {
		t.Fatalf("cache exceeded capacity or miscounted 2400 lookups: %+v", st)
	}
}

// lookupVariants generates the texts TestLookupMatchesFingerprintGet
// drives: canonical statements, case and whitespace variants of them, and
// literals that differ only inside their quotes.
func lookupVariants(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		k := rng.Intn(rng.Intn(24) + 1) // skewed: low k repeat, high k evict
		var sql string
		if k%3 == 0 {
			sql = fmt.Sprintf("SELECT COUNT(*) FROM t%d WHERE name = 'a%sb'", k, strings.Repeat(" ", 1+rng.Intn(2)))
		} else {
			sql = fmt.Sprintf("SELECT COUNT(*) FROM t%d WHERE x > %d", k, k*7)
		}
		switch rng.Intn(4) {
		case 1:
			sql = strings.Replace(strings.Replace(sql, "SELECT", "select", 1), "WHERE", "Where", 1)
		case 2:
			sql = "  " + strings.ReplaceAll(sql, " FROM ", "\n\tFROM  ") + " "
		}
		out[i] = sql
	}
	return out
}

// TestLookupMatchesFingerprintGet drives one cache through Lookup/Put and
// another through Fingerprint+Get/Put with the same texts: after every
// step both must return the same input, fingerprint and hit, and report
// the same stats. Capacity 8 under 24 statement shapes keeps evicting.
func TestLookupMatchesFingerprintGet(t *testing.T) {
	ref, got := NewPlanCache(8), NewPlanCache(8)
	for step, sql := range lookupVariants(rand.New(rand.NewSource(41)), 3000) {
		wantFP := Fingerprint(sql)
		wantIn, wantOK := ref.Get(wantFP)
		in, fp, ok := got.Lookup(sql)
		if fp != wantFP || ok != wantOK || in.OptimizerCost != wantIn.OptimizerCost {
			t.Fatalf("step %d %q: Lookup = (%v, %q, %v), Fingerprint+Get = (%v, %q, %v)",
				step, sql, in.OptimizerCost, fp, ok, wantIn.OptimizerCost, wantFP, wantOK)
		}
		if !ok {
			ref.Put(wantFP, PlanInput{OptimizerCost: float64(step)})
			got.Put(fp, PlanInput{OptimizerCost: float64(step)})
		}
		if a, b := got.Stats(), ref.Stats(); a != b {
			t.Fatalf("step %d %q: Lookup stats %+v, Fingerprint+Get stats %+v", step, sql, a, b)
		}
	}
	if st := got.Stats(); st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("sequence exercised too little: %+v", st)
	}
}

func TestLookup(t *testing.T) {
	const canon = "SELECT COUNT(*) FROM title WHERE production_year > 50"
	t.Run("non-canonical text hits its canonical form once", func(t *testing.T) {
		c := NewPlanCache(8)
		c.Put(canon, PlanInput{OptimizerCost: 1})
		in, fp, ok := c.Lookup("select count(*)\n  FROM title where production_year > 50 ")
		if !ok || fp != canon || in.OptimizerCost != 1 {
			t.Fatalf("Lookup = (%+v, %q, %v), want the canonical entry", in, fp, ok)
		}
		if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
			t.Fatalf("stats = %+v, want 1 hit / 0 misses", st)
		}
	})
	t.Run("canonical miss counts one miss", func(t *testing.T) {
		c := NewPlanCache(8)
		if _, fp, ok := c.Lookup(canon); ok || fp != canon {
			t.Fatalf("Lookup on empty cache = (%q, %v)", fp, ok)
		}
		if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
			t.Fatalf("stats = %+v, want 0 hits / 1 miss", st)
		}
	})
	t.Run("literal whitespace never hits", func(t *testing.T) {
		c := NewPlanCache(8)
		c.Put(Fingerprint("SELECT * FROM t WHERE name = 'a b'"), PlanInput{OptimizerCost: 1})
		for _, sql := range []string{"SELECT * FROM t WHERE name = 'a  b'", "select *  from t where name = 'a  b'"} {
			if in, fp, ok := c.Lookup(sql); ok {
				t.Fatalf("%q hit %q (%+v)", sql, fp, in)
			}
		}
		if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
			t.Fatalf("stats = %+v, want 0 hits / 2 misses", st)
		}
	})
}

// TestColdEntryRetainedBytes pins what a cold plan-cache entry keeps
// alive. It fills a 1 024-entry cache over imdb as the serving pipeline
// does — each statement's text copied, parsed and planned, and an
// EncodedPlan memo holding the zero-shot graph — and divides the growth
// of HeapInuse, read after a GC on each side, by the entries. An entry is
// its fingerprint, the parsed query and its text, the plan tree, the
// memo and the graph. With flat graphs that read 4.6–5.0 KB (median
// 4.8 KB over five runs on amd64, go1.24); with pointer graphs it read
// 6.4–7.0 KB. Ten runs of this test alone on a 2-vCPU amd64 box
// (go1.24) read 4 632–5 008 bytes with a memo holding a list of
// per-encoder slots and 4 624–4 776 with its one slot; the ceiling
// keeps the one-slot memo's largest run 8 % under it. The reading grows
// with GOMAXPROCS and the box's load: alone at -cpu 4 on a busy box it
// read up to 5 048, and 5 176 as the third of -cpu 1,2,4 in one
// process. Run with the rest of the package it read 4 224–4 568.
func TestColdEntryRetainedBytes(t *testing.T) {
	const entries, ceiling = 1024, 5200
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	enc := encoding.NewPlanEncoder(db.Schema, encoding.CardEstimated)
	key := enc.Key()
	// Distinct statements only: a repeat would refresh an entry, not add one.
	qs, err := query.NewGenerator(db, query.DefaultGenConfig(), 7).Generate(entries + entries/8)
	if err != nil {
		t.Fatal(err)
	}
	var sqls []string
	seen := map[string]bool{}
	for _, q := range qs {
		if sql := q.SQL(); !seen[Fingerprint(sql)] && len(sqls) < entries {
			seen[Fingerprint(sql)] = true
			sqls = append(sqls, sql)
		}
	}
	qs, seen = nil, nil
	cache := NewPlanCache(entries)
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	before := heapInuse()
	for _, text := range sqls {
		sql := strings.Clone(text)
		q, err := sqlparse.Parse(sql, db.Schema)
		if err != nil {
			t.Fatal(err)
		}
		p, err := opt.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		g, err := enc.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		in := PlanInput{DB: db, Query: q, Plan: p, OptimizerCost: optimizer.TotalCost(p), Enc: NewEncodedPlan()}
		in.Enc.store(key, g)
		cache.Put(Fingerprint(sql), in)
	}
	after := heapInuse()
	runtime.KeepAlive(cache)
	runtime.KeepAlive(sqls)

	if got := cache.Stats().Size; got != entries {
		t.Fatalf("cache holds %d entries, want %d", got, entries)
	}
	per := (float64(after) - float64(before)) / entries
	t.Logf("a cold entry retains %.0f bytes of heap", per)
	if per > ceiling {
		t.Fatalf("a cold entry retains %.0f bytes of heap, want <= %d", per, ceiling)
	}
}
