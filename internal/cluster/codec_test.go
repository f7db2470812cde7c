package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// transcriptBodies returns every request and reply body the HTTP
// transcripts record, the shim's own wire pinned byte for byte.
func transcriptBodies(t testing.TB) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "zsdb", "testdata", "transcripts", "*.golden"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no transcripts found (%v)", err)
	}
	var bodies [][]byte
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			// "> body" is a request, "< {...}" a reply body; "< 200 ..."
			// is a status line.
			if body, ok := strings.CutPrefix(line, "> "); ok && body != "" {
				bodies = append(bodies, []byte(body))
			} else if body, ok := strings.CutPrefix(line, "< "); ok && strings.HasPrefix(body, "{") {
				bodies = append(bodies, []byte(body))
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return bodies
}

// DecodeBody is Decode on a fresh Decoder: the oracle tests' spelling.
func DecodeBody(b []byte, v any) bool {
	var d Decoder
	return d.Decode(b, v)
}

// sameDecode checks DecodeBody against json.Decoder for one wire type:
// whenever DecodeBody accepts b, encoding/json must accept it too and
// produce the same value. It reports whether DecodeBody accepted.
func sameDecode[T any](t *testing.T, b []byte) bool {
	t.Helper()
	var got T
	if !DecodeBody(b, &got) {
		var zero T
		if !reflect.DeepEqual(got, zero) {
			t.Fatalf("DecodeBody refused %q but wrote %+v", b, got)
		}
		return false
	}
	var want T
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&want); err != nil {
		t.Fatalf("DecodeBody accepted %q as %T, which encoding/json refuses: %v", b, got, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeBody(%q) as %T:\n got %#v\nwant %#v", b, got, got, want)
	}
	return true
}

// decodeEveryType runs sameDecode for both types DecodeBody covers and
// counts the types that accepted b.
func decodeEveryType(t *testing.T, b []byte) int {
	n := 0
	for _, ok := range []bool{
		sameDecode[PredictRequest](t, b),
		sameDecode[PredictBatchRequest](t, b),
	} {
		if ok {
			n++
		}
	}
	return n
}

// wireEdges are bodies at the subset's borders, each once inside and
// once just outside it. The numeric members belong to the what-if and
// feedback bodies, which DecodeBody never reads, so it refuses every
// body carrying one.
var wireEdges = []string{
	`{}`,
	` {"db":"a"} trailing`,
	`{"db":"a"}{`,
	`{"db":"a",}`,
	`{"db" "a"}`,
	`{,"db":"a"}`,
	`{"db":"a""model":"b"}`,
	`null`,
	`{"sql":null}`,
	`{"sql":["a",null]}`,
	`{"sql":[]}`,
	`{"sql":[ "a" , "b" ]}`,
	`{"SQL":"a"}`,
	`{"s\u0071l":"a"}`,
	`{"sql":"a","sql":"b"}`,
	`{"sql":"\u003c\u00e9\u2028\uFFFD\/\b\f\n\r\t\"\\"}`,
	`{"sql":"\ud83d\ude00"}`,
	`{"sql":"\ud800"}`,
	`{"sql":"\udc00x"}`,
	`{"sql":"\u12"}`,
	`{"sql":"\x"}`,
	"{\"sql\":\"\xff\"}",
	"{\"sql\":\"\xed\xa0\x80\"}",
	"{\"sql\":\"\x01\"}",
	"{\"sql\":\"\x7f\xc3\xa9\"}",
	`{"actual_runtime_sec":0.25,"fingerprint":"f"}`,
	`{"actual_runtime_sec":-0}`,
	`{"actual_runtime_sec":01}`,
	`{"actual_runtime_sec":1.}`,
	`{"actual_runtime_sec":.5}`,
	`{"actual_runtime_sec":+1}`,
	`{"actual_runtime_sec":1e400}`,
	`{"actual_runtime_sec":4.9e-325}`,
	`{"actual_runtime_sec":1E+2}`,
	`{"actual_runtime_sec":"1"}`,
	`{"max_candidates":2}`,
	`{"max_candidates":-2}`,
	`{"max_candidates":2.0}`,
	`{"max_candidates":1e0}`,
	`{"max_candidates":9223372036854775808}`,
	`{"candidates":["a"],"candidates":["b"]}`,
}

// TestDecodeBodyMatchesEncodingJSON replays every transcript body and
// the subset's edges through both request types, and checks that the
// subset covers the predict bodies clients really send: each canonical
// body must be decoded, not left to the replay. The what-if and feedback
// bodies are always left to it, and it must read them whole.
func TestDecodeBodyMatchesEncodingJSON(t *testing.T) {
	for _, b := range transcriptBodies(t) {
		decodeEveryType(t, b)
	}
	for _, b := range wireEdges {
		decodeEveryType(t, []byte(b))
	}
	for _, b := range []string{
		`{"db":"imdb","model":"zeroshot","sql":"SELECT COUNT(*) FROM title WHERE production_year \u003e 50"}`,
		`{"db":"imdb","sql":["a","b"]}`,
	} {
		if decodeEveryType(t, []byte(b)) == 0 {
			t.Errorf("no wire type decodes %s", b)
		}
	}
	for _, c := range []struct {
		body string
		v    any // a pointer to a zero value of the body's type
		want any
	}{
		{`{"db":"imdb","model":"zeroshot","sql":["a","b"],"candidates":["title.id"],"max_candidates":2}`, &WhatIfRequest{},
			WhatIfRequest{DB: "imdb", Model: "zeroshot", SQL: []string{"a", "b"}, Candidates: []string{"title.id"}, MaxCandidates: 2}},
		{`{"db":"imdb","fingerprint":"f","actual_runtime_sec":0.25}`, &FeedbackRequest{},
			FeedbackRequest{DB: "imdb", Fingerprint: "f", ActualRuntimeSec: 0.25}},
	} {
		if DecodeBody([]byte(c.body), c.v) {
			t.Errorf("DecodeBody decoded %s as %T; that body is the replay's", c.body, c.v)
		}
		if err := json.NewDecoder(strings.NewReader(c.body)).Decode(c.v); err != nil {
			t.Fatalf("replay of %s: %v", c.body, err)
		}
		if got := reflect.ValueOf(c.v).Elem().Interface(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("replay of %s:\n got %#v\nwant %#v", c.body, got, c.want)
		}
	}
}

// FuzzWireDecode holds DecodeBody to encoding/json on arbitrary bytes:
// for every request type, whenever DecodeBody accepts, json.Decoder must
// accept too and produce a reflect.DeepEqual value.
func FuzzWireDecode(f *testing.F) {
	for _, b := range transcriptBodies(f) {
		f.Add(b)
	}
	for _, b := range wireEdges {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeEveryType(t, b)
	})
}

// wireStrings and wireFloats seed FuzzWireEncode: strings with
// HTML-unsafe bytes, line separators, control bytes and invalid UTF-8,
// and floats at encoding/json's format edges, NaN and ±Inf included.
// No check reads the floats; they stay in the target's signature so its
// checked-in corpus stays valid.
var (
	wireFloats = []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, 1.5e-9,
		1e20, 1e21, 9.999999999999999e20, 1e22, 123456789012345680000, 5e-324, 1e-310,
		2.2250738585072014e-308, math.MaxFloat64, -1e-7, -1e21, math.NaN(), math.Inf(1), math.Inf(-1)}
	wireStrings = []string{"", "SELECT COUNT(*) FROM title WHERE production_year > 50", `<&>`, "\u2028\u2029",
		"\x00\x01\x1f\x7f", "\b\f\n\r\t", `"\/`, "\xff", "a\xed\xa0\x80b", "\xc3", "😀", "\ufffd", "é"}
)

// sameRequest checks that DecodeBody takes what encoding/json writes for
// a request, whatever its strings, unless a nil slice put a null in it:
// a client's canonical body is never left to the replay.
func sameRequest[T any](t *testing.T, v T) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecode[T](t, b) && !bytes.Contains(b, []byte("null")) {
		t.Fatalf("DecodeBody refused encoding/json's own %q", b)
	}
}

// checkWire runs sameRequest on a request of each type DecodeBody
// covers, built from s1 and s2; n decides whether the batch is nil.
func checkWire(t *testing.T, s1, s2 string, _, _ float64, n int) {
	var sqls []string
	if n&1 == 0 {
		sqls = []string{s1, s2}
	}
	sameRequest(t, PredictRequest{DB: s1, Model: s2, SQL: s1 + s2})
	sameRequest(t, PredictBatchRequest{DB: s2, Model: s1, SQL: sqls})
}

// FuzzWireEncode holds DecodeBody to the requests encoding/json writes
// from arbitrary strings: every such body must be decoded, to the value
// json.Decoder reads back.
func FuzzWireEncode(f *testing.F) {
	for i, s := range wireStrings {
		f.Add(s, wireStrings[(i+1)%len(wireStrings)], wireFloats[i%len(wireFloats)], wireFloats[(i+7)%len(wireFloats)], i)
	}
	for i, x := range wireFloats {
		f.Add("a", "b", x, -x, i)
	}
	f.Fuzz(checkWire)
}

// batchBody is a 256-statement /v1/predict_batch body as a client's
// json.Marshal writes it: every statement has a `<` or `>`, which it
// escapes.
func batchBody(t testing.TB) []byte {
	sqls := make([]string, 256)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT COUNT(*) FROM title, movie_companies, movie_info WHERE title.id = movie_companies.movie_id"+
			" AND title.id = movie_info.movie_id AND title.production_year > %d AND movie_companies.company_type_id < %d"+
			" AND movie_info.info_type_id >= %d", 1900+i, i%7, i%113)
	}
	body, err := json.Marshal(PredictBatchRequest{DB: "imdb", Model: "zeroshot", SQL: sqls})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecoderReuse decodes every transcript body, every edge and an
// escaped batch through one Decoder: each value must equal a fresh
// DecodeBody's. Release must clear every statement slot, and a warm
// batch must allocate only its db and model copies: the statement slice
// is reused and the text buffer never moves.
func TestDecoderReuse(t *testing.T) {
	var dec Decoder
	bodies := append(transcriptBodies(t), batchBody(t))
	for _, b := range wireEdges {
		bodies = append(bodies, []byte(b))
	}
	for _, b := range bodies {
		var got, want PredictBatchRequest
		if ok := dec.Decode(b, &got); ok != DecodeBody(b, &want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("reused Decoder on %q: %t %#v, fresh %#v", b, ok, got, want)
		}
		var one, fresh PredictRequest
		if ok := dec.Decode(b, &one); ok != DecodeBody(b, &fresh) || one != fresh {
			t.Fatalf("reused Decoder on %q: %t %#v, fresh %#v", b, ok, one, fresh)
		}
	}
	body := batchBody(t)
	var req PredictBatchRequest
	if !dec.Decode(body, &req) {
		t.Fatal("Decode refused the batch")
	}
	dec.Release()
	for i, s := range req.SQL[:cap(req.SQL)] {
		if s != "" {
			t.Fatalf("slot %d still holds %q after Release", i, s)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { dec.Decode(body, &req) }); allocs > 2 {
		t.Errorf("a warm batch decode allocates %.0f times, want <= 2 (db and model)", allocs)
	}
}

// BenchmarkDecodeBody decodes a 256-statement /v1/predict_batch body
// with the hand decoder, fresh (DecodeBody) and reused as the shim
// reuses it (Decoder), and with json.Decoder: the measure of what the
// decoder is kept for.
func BenchmarkDecodeBody(b *testing.B) {
	body := batchBody(b)
	b.Logf("body: %d bytes", len(body))
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PredictBatchRequest
			if !DecodeBody(body, &req) {
				b.Fatal("DecodeBody refused the body")
			}
		}
	})
	b.Run("codec_reused", func(b *testing.B) {
		b.ReportAllocs()
		var dec Decoder
		for i := 0; i < b.N; i++ {
			var req PredictBatchRequest
			if !dec.Decode(body, &req) {
				b.Fatal("Decode refused the body")
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PredictBatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
