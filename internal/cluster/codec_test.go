package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/serving"
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

// decodeEveryType runs sameDecode for each type DecodeBody covers and
// counts the types that accepted b.
func decodeEveryType(t *testing.T, b []byte) int {
	n := 0
	for _, ok := range []bool{
		sameDecode[PredictRequest](t, b),
		sameDecode[PredictBatchRequest](t, b),
		sameDecode[WhatIfRequest](t, b),
		sameDecode[FeedbackRequest](t, b),
	} {
		if ok {
			n++
		}
	}
	return n
}

// wireEdges are bodies at the subset's borders, each once inside and
// once just outside it.
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
// the subset's edges through each request type, and checks that the
// subset covers the bodies clients really send: each of the canonical
// bodies below must be decoded, not left to the replay.
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
		`{"db":"imdb","model":"zeroshot","sql":["a","b"],"candidates":["title.id"],"max_candidates":2}`,
		`{"db":"imdb","fingerprint":"f","actual_runtime_sec":0.25}`,
	} {
		if decodeEveryType(t, []byte(b)) == 0 {
			t.Errorf("no wire type decodes %s", b)
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

// encoderFloats and encoderStrings sit at the encoder's edges: the
// 1e-6 and 1e21 format switches, subnormals, signed zero, values the
// encoder refuses, HTML-unsafe bytes, line separators, control bytes
// and invalid UTF-8.
var (
	encoderFloats = []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, 1.5e-9,
		1e20, 1e21, 9.999999999999999e20, 1e22, 123456789012345680000, 5e-324, 1e-310,
		2.2250738585072014e-308, math.MaxFloat64, -1e-7, -1e21, math.NaN(), math.Inf(1), math.Inf(-1)}
	encoderStrings = []string{"", "SELECT COUNT(*) FROM title WHERE production_year > 50", `<&>`, "\u2028\u2029",
		"\x00\x01\x1f\x7f", "\b\f\n\r\t", `"\/`, "\xff", "a\xed\xa0\x80b", "\xc3", "😀", "\ufffd", "é"}
)

// wireValues builds the two replies AppendJSON writes from the
// fuzzer's inputs, and a request of each type the server reads; n also
// decides which slices are nil.
func wireValues(s1, s2 string, f1, f2 float64, n int) (replies, requests []any) {
	var sqls, cands []string
	var results []BatchItemResult
	if n&1 == 0 {
		sqls = []string{s1, s2}
		cands = []string{s2}
		results = []BatchItemResult{{RuntimeSec: f1}, {Error: s2}, {}}
	}
	replies = []any{
		serving.Prediction{Database: s1, Model: s2, RuntimeSec: f1, OptimizerCost: f2, EstRows: f1, Fingerprint: s2, PlanCached: n&1 == 1},
		PredictBatchReply{DB: s1, Model: s2, Results: results, Count: n, Errors: -n},
	}
	requests = []any{
		PredictRequest{DB: s1, Model: s2, SQL: s1 + s2},
		PredictBatchRequest{DB: s2, Model: s1, SQL: sqls},
		WhatIfRequest{DB: s1, SQL: sqls, Candidates: cands, MaxCandidates: n},
		FeedbackRequest{DB: s1, Fingerprint: s2, SQL: s1, ActualRuntimeSec: f2},
	}
	return replies, requests
}

// sameEncode checks AppendJSON against json.Encoder for one value: the
// same bytes, or false exactly where the encoder fails.
func sameEncode(t *testing.T, v any) {
	t.Helper()
	var want bytes.Buffer
	encErr := json.NewEncoder(&want).Encode(v)
	prefix := []byte("prefix")
	got, ok := AppendJSON(prefix, v)
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("AppendJSON(%T) lost the destination's prefix: %q", v, got)
	}
	got = got[len(prefix):]
	switch {
	case encErr != nil && ok:
		t.Fatalf("AppendJSON(%#v) = %q, but the encoder fails: %v", v, got, encErr)
	case encErr != nil:
		if len(got) != 0 {
			t.Fatalf("AppendJSON(%#v) refused but appended %q", v, got)
		}
	case !ok:
		t.Fatalf("AppendJSON(%#v) refused; the encoder writes %q", v, want.Bytes())
	case !bytes.Equal(got, want.Bytes()):
		t.Fatalf("AppendJSON(%T):\n got %q\nwant %q", v, got, want.Bytes())
	}
}

// sameRequest checks that DecodeBody takes what encoding/json writes for
// a request, whatever its strings, unless a nil slice put a null in it:
// a client's canonical body is never left to the replay.
func sameRequest(t *testing.T, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var accepted bool
	switch v.(type) {
	case PredictRequest:
		accepted = sameDecode[PredictRequest](t, b)
	case PredictBatchRequest:
		accepted = sameDecode[PredictBatchRequest](t, b)
	case WhatIfRequest:
		accepted = sameDecode[WhatIfRequest](t, b)
	case FeedbackRequest:
		accepted = sameDecode[FeedbackRequest](t, b)
	}
	if !accepted && !bytes.Contains(b, []byte("null")) {
		t.Fatalf("DecodeBody refused encoding/json's own %q", b)
	}
}

// checkWire runs sameEncode on the replies and sameRequest on the
// requests wireValues builds.
func checkWire(t *testing.T, s1, s2 string, f1, f2 float64, n int) {
	replies, requests := wireValues(s1, s2, f1, f2, n)
	for _, v := range replies {
		sameEncode(t, v)
	}
	if math.IsNaN(f2) || math.IsInf(f2, 0) {
		return // encoding/json cannot write the feedback request
	}
	for _, v := range requests {
		sameRequest(t, v)
	}
}

func TestAppendJSONMatchesEncoder(t *testing.T) {
	for _, s := range encoderStrings {
		for _, f := range encoderFloats {
			for n := 0; n < 4; n++ {
				checkWire(t, s, s+"x", f, -f/3, n)
			}
		}
	}
	for _, v := range []any{nil, 1, "x", map[string]any{"a": 1}, &serving.Prediction{}, PredictRequest{}} {
		if _, ok := AppendJSON(nil, v); ok {
			t.Errorf("AppendJSON accepted %T", v)
		}
	}
}

// FuzzWireEncode holds AppendJSON to json.Encoder on arbitrary strings
// and floats, NaN, ±Inf, subnormals and the format edges included, and
// DecodeBody to the requests encoding/json writes from the same inputs.
func FuzzWireEncode(f *testing.F) {
	for i, s := range encoderStrings {
		f.Add(s, encoderStrings[(i+1)%len(encoderStrings)], encoderFloats[i%len(encoderFloats)], encoderFloats[(i+7)%len(encoderFloats)], i)
	}
	for i, x := range encoderFloats {
		f.Add("a", "b", x, -x, i)
	}
	f.Fuzz(checkWire)
}
