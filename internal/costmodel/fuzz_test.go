package costmodel

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFingerprint fuzzes the plan-cache key canonicalizer. Two
// properties must hold for arbitrary byte soup, not just SQL:
//
//  1. No panic — the function lexes raw request bodies.
//  2. Idempotence — Fingerprint(Fingerprint(x)) == Fingerprint(x). The
//     fingerprint IS the normalized text, so feeding a normalized
//     statement back (a client echoing the fingerprint as SQL, the
//     feedback path's by-SQL join) must land on the same cache entry.
//
// Plus two shape invariants of the normal form: no leading/trailing
// whitespace, and no whitespace runs outside string literals — and
// agreement, on every input, with fingerprintReference (the per-word
// ToLower / map probe / ToUpper body Fingerprint had before it matched
// keywords in place).
//
// Seed corpus: f.Add cases below plus testdata/fuzz/FuzzFingerprint.
func FuzzFingerprint(f *testing.F) {
	seeds := []string{
		"",
		"SELECT COUNT(*) FROM title",
		"  select\tcount(*)\nFROM title  WHERE x > 5 ",
		"SELECT * FROM t WHERE name = 'a  b'",
		"SELECT * FROM t WHERE name = 'unterminated",
		"select sum(a.b) from a, b where a.x = b.y and a.z between 1 and 2",
		"'lone literal'",
		"SELECT '' FROM ''",
		"sElEcT DISTINCT x FROM y GROUP BY z HAVING COUNT(*) > 3 ORDER BY x DESC LIMIT 5",
		"\x00\xff' \t'\x00",
		"WHERE IS NOT NULL LIKE '%_%'",
		"Select Selects bY by_ oRdEr orders Between betwee DISTINCTS distinct nulL",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		fp := Fingerprint(sql)
		if want := fingerprintReference(sql); fp != want {
			t.Fatalf("diverges from the reference:\n input     %q\n got       %q\n reference %q", sql, fp, want)
		}
		if again := Fingerprint(fp); again != fp {
			t.Fatalf("not idempotent:\n input %q\n once  %q\n twice %q", sql, fp, again)
		}
		// Leading whitespace can never survive (a literal starts at its
		// quote); trailing whitespace may — but only inside an
		// unterminated literal, which copies verbatim to end of input.
		if fp != "" && isSpaceByte(fp[0]) {
			t.Fatalf("normal form has leading whitespace: %q (from %q)", fp, sql)
		}
		endsInLiteral := assertNoSpaceRunsOutsideLiterals(t, sql, fp)
		if !endsInLiteral && fp != "" && isSpaceByte(fp[len(fp)-1]) {
			t.Fatalf("normal form has trailing whitespace outside a literal: %q (from %q)", fp, sql)
		}
	})
}

// assertNoSpaceRunsOutsideLiterals walks the normal form with the same
// literal rules as the fingerprinter: outside single-quoted literals,
// the only whitespace byte is a single ' '. It reports whether the
// normal form ends inside an (unterminated) literal.
func assertNoSpaceRunsOutsideLiterals(t *testing.T, input, fp string) (endsInLiteral bool) {
	t.Helper()
	inLiteral := false
	prevSpace := false
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if c == '\'' {
			inLiteral = !inLiteral
			prevSpace = false
			continue
		}
		if inLiteral {
			continue
		}
		switch c {
		case ' ':
			if prevSpace {
				t.Fatalf("whitespace run survived at %d in %q (from %q)", i, fp, input)
			}
			prevSpace = true
		case '\t', '\n', '\r', '\v', '\f':
			t.Fatalf("raw whitespace byte %q survived outside literal in %q (from %q)", c, fp, input)
		default:
			prevSpace = false
		}
	}
	return inLiteral
}

// TestFingerprintIdempotenceSeeds pins the fuzz property on the seed
// corpus even in plain `go test` runs (fuzz engines only execute seeds
// by default, but this keeps the property visible as a named test).
func TestFingerprintIdempotenceSeeds(t *testing.T) {
	seeds := []string{
		"SELECT COUNT(*) FROM title WHERE production_year > 1990",
		"  select  COUNT(*)  from  title  ",
		"SELECT * FROM t WHERE s = 'A  \t B' AND u = 'unterminated",
	}
	for _, s := range seeds {
		fp := Fingerprint(s)
		if Fingerprint(fp) != fp {
			t.Errorf("Fingerprint not idempotent on %q", s)
		}
	}
}

// FuzzLoad feeds the model-file reader bytes it did not write: serve,
// eval and the bundle tier all load whatever file they are pointed at.
// Load may refuse them, but must not panic, and an estimator it does
// return must save to a file Load reads back.
//
// Seed corpus: the pinned model files under testdata/models and a
// width-8 zero-shot file built here.
func FuzzLoad(f *testing.F) {
	for _, name := range pinnedModels {
		raw, err := os.ReadFile(filepath.Join("testdata", "models", name+".gob"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	zs, err := New(NameZeroShot, Options{Hidden: 8, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, zs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		est, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Save(&out, est); err != nil {
			t.Fatalf("loaded %s does not save: %v", est.Name(), err)
		}
		if _, err := Load(&out); err != nil {
			t.Fatalf("loaded %s saves to a file Load refuses: %v", est.Name(), err)
		}
	})
}
