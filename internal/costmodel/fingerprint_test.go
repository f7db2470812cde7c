package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// reformat returns sql with every whitespace run replaced by a random run
// of spaces, tabs and newlines, random whitespace at both ends, and the
// letters of every keyword flipped to random case: a spelling of the same
// statement that Fingerprint must not tell apart from the original.
// Generated statements carry only numeric literals, so no quoted text
// needs skipping.
func reformat(sql string, rng *rand.Rand) string {
	const spaces = " \t\n\r"
	run := func(min int) string {
		n := min + rng.Intn(3)
		b := make([]byte, n)
		for i := range b {
			b[i] = spaces[rng.Intn(len(spaces))]
		}
		return string(b)
	}
	var b strings.Builder
	b.WriteString(run(0))
	for i := 0; i < len(sql); {
		c := sql[i]
		switch {
		case isSpaceByte(c):
			for i < len(sql) && isSpaceByte(sql[i]) {
				i++
			}
			b.WriteString(run(1))
		case isWordByte(c):
			j := i
			for j < len(sql) && isWordByte(sql[j]) {
				j++
			}
			word := []byte(sql[i:j])
			if isKeyword(string(word)) {
				for k, c := range word {
					if rng.Intn(2) == 0 {
						word[k] = c ^ 0x20 // letters only: keywords are all letters
					}
				}
			}
			b.Write(word)
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	b.WriteString(run(0))
	return b.String()
}

// TestEqualFingerprintPlansEqually is the soundness property the plan
// cache's key rests on: two statements with one
// fingerprint plan identically. On generated imdb, ssb and tpch
// workloads, every reformatting of a statement (whitespace runs, keyword
// case) keeps its fingerprint and parses and plans to the same plan —
// same Explain, same optimizer cost to the bit — and changing one filter
// literal changes the fingerprint exactly when it changes the literal's
// text.
func TestEqualFingerprintPlansEqually(t *testing.T) {
	for _, mk := range []struct {
		name string
		gen  func(float64) (*storage.Database, error)
	}{{"imdb", datagen.IMDBLike}, {"ssb", datagen.SSBLike}, {"tpch", datagen.TPCHLike}} {
		t.Run(mk.name, func(t *testing.T) {
			db, err := mk.gen(0.02)
			if err != nil {
				t.Fatal(err)
			}
			st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
			opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
			planOf := func(sql string) (string, uint64) {
				t.Helper()
				q, err := sqlparse.Parse(sql, db.Schema)
				if err != nil {
					t.Fatalf("parse %q: %v", sql, err)
				}
				p, err := opt.Plan(q)
				if err != nil {
					t.Fatalf("plan %q: %v", sql, err)
				}
				return p.Explain(), math.Float64bits(optimizer.TotalCost(p))
			}
			qs, err := query.NewGenerator(db, query.DefaultGenConfig(), 17).Generate(200)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			for _, q := range qs {
				sql := q.SQL()
				fp := Fingerprint(sql)
				explain, cost := planOf(sql)
				for r := 0; r < 4; r++ {
					v := reformat(sql, rng)
					if got := Fingerprint(v); got != fp {
						t.Fatalf("reformatting moved the fingerprint:\n%q\n%q\n got %q\nwant %q", sql, v, got, fp)
					}
					if e, c := planOf(v); e != explain || c != cost {
						t.Fatalf("equal fingerprints, different plans:\n%q\n%q\n%s(cost bits %x)\n%s(cost bits %x)", sql, v, explain, cost, e, c)
					}
				}

				if len(q.Filters) == 0 {
					continue
				}
				fi := rng.Intn(len(q.Filters))
				old := q.Filters[fi].Value
				for _, nv := range []float64{old, old + 1, old * 2, -old, math.Nextafter(old, math.Inf(1))} {
					changed := *q
					changed.Filters = append([]query.Filter(nil), q.Filters...)
					changed.Filters[fi].Value = nv
					same := fmt.Sprint(nv) == fmt.Sprint(old)
					if got := Fingerprint(changed.SQL()) == fp; got != same {
						t.Fatalf("literal %v -> %v: fingerprint unchanged = %v, want %v (the text's)\n%q", old, nv, got, same, changed.SQL())
					}
				}
			}
		})
	}
}
