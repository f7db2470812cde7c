package costmodel

import (
	"strings"
	"testing"
)

// referenceKeywords is the keyword set as fingerprintReference probes
// it: a map with lowercase keys.
var referenceKeywords = map[string]bool{
	"select": true, "distinct": true, "from": true, "where": true,
	"and": true, "or": true, "not": true, "in": true, "between": true,
	"like": true, "as": true, "on": true, "join": true, "inner": true,
	"left": true, "right": true, "outer": true, "group": true, "by": true,
	"having": true, "order": true, "asc": true, "desc": true, "limit": true,
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"null": true, "is": true,
}

// fingerprintReference is Fingerprint as it was before keywords were
// matched in place: a ToLower, a map probe and a ToUpper per word. It is
// the oracle: FuzzFingerprint and TestFingerprintMatchesReference hold
// Fingerprint equal to it on every input.
func fingerprintReference(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
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
			if referenceKeywords[strings.ToLower(word)] {
				b.WriteString(strings.ToUpper(word))
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

// benchSQL is a three-table statement of the serving workloads' shape
// (189 bytes), keywords in the case a hand-written client sends.
const benchSQL = "select count(*), min(t.production_year) from title t, movie_companies mc, movie_info mi " +
	"where mc.movie_id = t.id and mi.movie_id = t.id and t.production_year > 50 and mc.company_type_id = 2"

// TestFingerprintMatchesReference walks every keyword through the case
// variants and near misses a length-indexed table could get wrong, and
// pins the allocation count the rewrite exists for.
func TestFingerprintMatchesReference(t *testing.T) {
	var inputs []string
	for kw := range referenceKeywords {
		up := strings.ToUpper(kw)
		mixed := up[:1] + kw[1:]
		inputs = append(inputs,
			kw, up, mixed, kw[:1]+up[1:],
			kw+"x", "x"+kw, kw+"_", kw+"1", kw[:len(kw)-1], // identifiers that contain or prefix a keyword
			kw+" "+up+"\t"+mixed+"("+kw+")'"+kw+"'",
		)
	}
	inputs = append(inputs, benchSQL, strings.ToUpper(benchSQL), "sel\xe9ct ſelect KELVIN Kelvin", "@s `s [as] {as}")
	for _, in := range inputs {
		if got, want := Fingerprint(in), fingerprintReference(in); got != want {
			t.Errorf("Fingerprint(%q) = %q, reference %q", in, got, want)
		}
	}
	n := 0
	for _, kws := range sqlKeywords {
		for _, kw := range kws {
			if !referenceKeywords[kw] {
				t.Errorf("keyword table has %q, the reference set does not", kw)
			}
			n++
		}
	}
	if n != len(referenceKeywords) {
		t.Errorf("keyword table has %d words, the reference set %d", n, len(referenceKeywords))
	}
	if allocs := testing.AllocsPerRun(100, func() { Fingerprint(benchSQL) }); allocs > 1 {
		t.Errorf("Fingerprint allocates %.0f times per call, want the result only", allocs)
	}
}

var fingerprintSink string

// BenchmarkFingerprint measures the plan-cache key of one hot request,
// beside the reference it replaced.
func BenchmarkFingerprint(b *testing.B) {
	for _, impl := range []struct {
		name string
		fn   func(string) string
	}{{"inplace", Fingerprint}, {"reference", fingerprintReference}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(benchSQL)))
			for i := 0; i < b.N; i++ {
				fingerprintSink = impl.fn(benchSQL)
			}
		})
	}
}
