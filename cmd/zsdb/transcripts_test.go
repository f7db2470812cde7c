package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// exchange is one scripted request. show replaces the body in the
// transcript when the body is too large to print.
type exchange struct {
	method, path, body, show string
}

// sqlArray renders n copies of testSQL as a JSON array.
func sqlArray(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat(fmt.Sprintf("%q,", testSQL), n), ",") + "]"
}

const malformed = `{"db":`

func post(path, body string) exchange {
	return exchange{method: http.MethodPost, path: path, body: body}
}

func get(path string) exchange { return exchange{method: http.MethodGet, path: path} }

// transcriptScript is the request sequence replayed against every
// topology with adaptation and bundles on: every route × {happy path,
// wrong method, malformed body, missing field, unknown database,
// oversized batch, join miss}, then every GET document.
func transcriptScript() []exchange {
	fp := costmodel.Fingerprint(testSQL)
	return []exchange{
		get("/healthz"),
		get("/v1/models"),
		get("/v1/databases"),

		post("/v1/predict", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":%q}`, testSQL)),
		post("/v1/predict", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":%q}`, "  "+testSQL+"  ")),
		post("/v1/predict", `{"db":"ssb","model":"scaledcost","sql":"SELECT COUNT(*) FROM lineorder"}`),
		get("/v1/predict"),
		post("/v1/predict", malformed),
		post("/v1/predict", `{"db":"imdb","model":"zeroshot"}`),
		post("/v1/predict", fmt.Sprintf(`{"db":"nope","model":"zeroshot","sql":%q}`, testSQL)),
		post("/v1/predict", fmt.Sprintf(`{"db":"imdb","model":"nope","sql":%q}`, testSQL)),
		post("/v1/predict", fmt.Sprintf(`{"db":"imdb","sql":%q}`, testSQL)),
		post("/v1/predict", `{"db":"imdb","model":"zeroshot","sql":"DROP TABLE title"}`),

		post("/v1/predict_batch", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[%q,"garbage","SELECT COUNT(*) FROM movie_companies"]}`, testSQL)),
		get("/v1/predict_batch"),
		post("/v1/predict_batch", malformed),
		post("/v1/predict_batch", `{"db":"imdb","model":"zeroshot"}`),
		post("/v1/predict_batch", fmt.Sprintf(`{"db":"nope","model":"zeroshot","sql":[%q]}`, testSQL)),
		{http.MethodPost, "/v1/predict_batch", `{"db":"imdb","model":"zeroshot","sql":` + sqlArray(maxBatch+1) + `}`,
			fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[<%d statements>]}`, maxBatch+1)},

		post("/v1/whatif", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[%q,%q],"candidates":["title.production_year","movie_companies.movie_id"]}`, testSQL, whatIfWorkload[1])),
		post("/v1/whatif", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[%q],"max_candidates":2}`, whatIfWorkload[1])),
		get("/v1/whatif"),
		post("/v1/whatif", malformed),
		post("/v1/whatif", `{"db":"imdb"}`),
		post("/v1/whatif", fmt.Sprintf(`{"db":"nope","sql":[%q]}`, testSQL)),
		post("/v1/whatif", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[%q],"candidates":["no_dot"]}`, testSQL)),
		{http.MethodPost, "/v1/whatif", `{"db":"imdb","sql":` + sqlArray(maxBatch+1) + `}`,
			fmt.Sprintf(`{"db":"imdb","sql":[<%d statements>]}`, maxBatch+1)},

		post("/v1/feedback", fmt.Sprintf(`{"db":"imdb","fingerprint":%q,"actual_runtime_sec":0.25}`, fp)),
		post("/v1/feedback", `{"db":"imdb","sql":"  select COUNT(*) from title WHERE production_year > 50","actual_runtime_sec":0.5}`),
		post("/v1/feedback", `{"db":"imdb","sql":"SELECT COUNT(*) FROM cast_info","actual_runtime_sec":0.5}`),
		get("/v1/feedback"),
		post("/v1/feedback", malformed),
		post("/v1/feedback", `{"db":"imdb","actual_runtime_sec":0.5}`),
		post("/v1/feedback", fmt.Sprintf(`{"db":"imdb","fingerprint":%q}`, fp)),
		post("/v1/feedback", fmt.Sprintf(`{"db":"nope","fingerprint":%q,"actual_runtime_sec":0.5}`, fp)),

		get("/v1/bundles"),
		post("/v1/bundles", `{"action":"refresh"}`),
		post("/v1/bundles", `{"action":"rollback","revision":7}`),
		post("/v1/bundles", `{"action":"explode"}`),
		post("/v1/bundles", malformed),
		{method: http.MethodPut, path: "/v1/bundles"},

		get("/v1/adapt/status"),
		get("/v1/stats"),
		get("/v1/cluster"),
		get("/v1/debug/traces"),
		get("/v1/debug/traces?n=-1"),
		get("/v1/events"),
		get("/v1/events?since=x"),
		get("/v1/events?max=0"),
		post("/healthz", ""),
		post("/v1/models", ""),
		post("/v1/databases", ""),
		post("/v1/stats", ""),
		post("/v1/adapt/status", ""),
		post("/v1/cluster", ""),
		post("/v1/debug/traces", ""),
		post("/v1/events", ""),
		get("/v1/nope"),
	}
}

// plainScript asks a fleet booted without -adapt and -bundle-dir for
// every answer that depends on them. The body over the limit goes last:
// its answer closes the connection.
func plainScript() []exchange {
	return []exchange{
		post("/v1/predict", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":%q}`, testSQL)),
		post("/v1/feedback", fmt.Sprintf(`{"db":"imdb","fingerprint":%q,"actual_runtime_sec":0.25}`, costmodel.Fingerprint(testSQL))),
		post("/v1/feedback", malformed),
		post("/v1/feedback", `{"db":"imdb","actual_runtime_sec":0.5}`),
		get("/v1/adapt/status"),
		get("/v1/stats"),
		get("/v1/bundles"),
		post("/v1/bundles", `{"action":"refresh"}`),
		get("/v1/events"),
		{http.MethodPost, "/v1/predict", `{"db":"imdb","model":"zeroshot","sql":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
			fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":"<%d bytes>"}`, maxBodyBytes)},
	}
}

// edgeScript sends bodies at the edges of JSON as encoding/json reads
// them: trailing bytes, folded and unknown member names, nulls, escapes,
// surrogates, invalid UTF-8, wrong-typed members, numbers out of range
// and duplicate keys. The replies pin how the server reads each one.
func edgeScript() []exchange {
	pred := func(members string) exchange {
		return post("/v1/predict", `{"db":"imdb","model":"zeroshot",`+members+`}`)
	}
	return []exchange{
		post("/v1/predict", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":%q} trailing`, testSQL)),
		post("/v1/predict", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":%q}{"sql":`, testSQL)),
		{http.MethodPost, "/v1/predict", fmt.Sprintf(" \n\t{ \"db\" : \"imdb\" ,\r\n\"model\":\"zeroshot\", \"sql\" : %q } ", testSQL),
			fmt.Sprintf(`<sp><lf><tab>{ "db" : "imdb" ,<cr><lf>"model":"zeroshot", "sql" : %q } `, testSQL)},
		post("/v1/predict", fmt.Sprintf(`{"Db":"imdb","model":"zeroshot","SQL":%q}`, testSQL)),
		post("/v1/predict", fmt.Sprintf(`{"db":"imdb","MODEL":"zeroshot","sql":%q}`, testSQL)),
		pred(fmt.Sprintf(`"sql":%q,"explain":{"verbose":[true,null,1.5,"x"]}`, testSQL)),
		pred(fmt.Sprintf(`"s\u0071l":%q`, testSQL)),
		pred(`"sql":null`),
		post("/v1/predict", `null`),
		post("/v1/predict", `[]`),
		post("/v1/predict", ""),
		post("/v1/predict_batch", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[%q,null]}`, testSQL)),
		post("/v1/predict_batch", `{"db":"imdb","model":"zeroshot","sql":null}`),
		post("/v1/predict_batch", `{"db":"imdb","model":"zeroshot","sql":[]}`),
		pred(`"sql":"SELECT COUNT(*) FROM title WHERE production_year \u003c 50"`),
		pred(`"sql":"SELECT\tCOUNT(*)\nFROM title\r\nWHERE production_year \u003e 50 \/\/ \"q\" \\"`),
		post("/v1/predict", fmt.Sprintf(`{"db":"\ud83d\ude00","model":"zeroshot","sql":%q}`, testSQL)),
		post("/v1/predict", fmt.Sprintf(`{"db":"\ud800","model":"zeroshot","sql":%q}`, testSQL)),
		post("/v1/predict_batch", `{"db":"imdb","model":"zeroshot","sql":["SELECT COUNT(*) FROM title \ud83d\ude00","SELECT \u2028 \u00e9 <&>"]}`),
		{http.MethodPost, "/v1/predict", fmt.Sprintf(`{"db":"im%sdb","model":"zeroshot","sql":%q}`, "\xff", testSQL),
			fmt.Sprintf(`{"db":"im<0xff>db","model":"zeroshot","sql":%q}`, testSQL)},
		{http.MethodPost, "/v1/predict", "{\"db\":\"imdb\",\"model\":\"zeroshot\",\"sql\":\"SELECT\x01\"}",
			`{"db":"imdb","model":"zeroshot","sql":"SELECT<0x01>"}`},
		pred(`"sql":5`),
		pred(`"sql":["SELECT COUNT(*) FROM title"]`),
		post("/v1/predict_batch", `{"db":"imdb","model":"zeroshot","sql":"SELECT COUNT(*) FROM title"}`),
		post("/v1/whatif", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[%q],"max_candidates":"2"}`, testSQL)),
		post("/v1/whatif", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[%q],"max_candidates":1e0}`, testSQL)),
		post("/v1/whatif", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":[%q],"max_candidates":99999999999999999999}`, testSQL)),
		post("/v1/feedback", fmt.Sprintf(`{"db":"imdb","fingerprint":%q,"actual_runtime_sec":"x"}`, costmodel.Fingerprint(testSQL))),
		post("/v1/feedback", fmt.Sprintf(`{"db":"imdb","fingerprint":%q,"actual_runtime_sec":1e400}`, costmodel.Fingerprint(testSQL))),
		post("/v1/feedback", fmt.Sprintf(`{"db":"imdb","fingerprint":%q,"actual_runtime_sec":-0}`, costmodel.Fingerprint(testSQL))),
		post("/v1/feedback", fmt.Sprintf(`{"db":"imdb","fingerprint":%q,"actual_runtime_sec":01}`, costmodel.Fingerprint(testSQL))),
		pred(fmt.Sprintf(`"sql":"garbage","sql":%q`, testSQL)),
		pred(fmt.Sprintf(`"sql":%q,"sql":"garbage"`, testSQL)),
		post("/v1/predict_batch", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":["garbage","garbage"],"sql":[%q]}`, testSQL)),
		post("/v1/predict", fmt.Sprintf(`{"db":"ssb","db":"imdb","model":"zeroshot","sql":%q}`, testSQL)),
	}
}

// clockValued matches the JSON members whose values depend on the wall
// clock or on a content digest; the transcript keeps the key and masks
// the value, so field order and presence stay pinned.
var clockValued = regexp.MustCompile(`"(collected_at|uptime_sec|swapped|last_swap|mean_ms|p50_ms|p95_ms|p99_ms|max_ms|created_at|last_activated|sha256|time)":("[^"]*"|[-+.0-9eE]+)`)

// record replays the script against baseURL and renders the transcript.
func record(t *testing.T, baseURL string, script []exchange) string {
	t.Helper()
	var out strings.Builder
	for _, x := range script {
		req, err := http.NewRequest(x.method, baseURL+x.path, strings.NewReader(x.body))
		if err != nil {
			t.Fatal(err)
		}
		if x.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", x.method, x.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: %v", x.method, x.path, err)
		}
		shown := x.body
		if x.show != "" {
			shown = x.show
		}
		fmt.Fprintf(&out, "%s %s\n> %s\n< %d %s\n< %s\n", x.method, x.path, shown,
			resp.StatusCode, resp.Header.Get("Content-Type"), clockValued.ReplaceAll(bytes.TrimRight(body, "\n"), []byte(`"$1":"~"`)))
	}
	return out.String()
}

// TestHTTPTranscripts pins the wire: the full scripted conversation with
// each shipped topology, byte for byte apart from clock-valued fields,
// against testdata/transcripts. UPDATE_TRANSCRIPTS=1 rewrites the goldens
// after a deliberate wire change; read the diff before committing it.
func TestHTTPTranscripts(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			got := "## adaptation and bundles on\n" + record(t, topo.boot(t, fleetOpts{adapt: true, bundles: true}), transcriptScript()) +
				"## adaptation and bundles off\n" + record(t, topo.boot(t, fleetOpts{}), plainScript()) +
				"## wire edge cases\n" + record(t, topo.boot(t, fleetOpts{adapt: true}), edgeScript())
			path := filepath.Join("testdata", "transcripts", topo.name+".golden")
			if os.Getenv("UPDATE_TRANSCRIPTS") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("transcript differs from %s:\n%s", path, firstDifference(string(want), got))
			}
		})
	}
}

// firstDifference names the first line on which two transcripts part,
// with the request that led to it.
func firstDifference(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	request := ""
	for i := 0; i < len(w) && i < len(g); i++ {
		if !strings.HasPrefix(w[i], "<") && !strings.HasPrefix(w[i], ">") {
			request = w[i]
		}
		if w[i] != g[i] {
			return fmt.Sprintf("line %d, after %q\nwant: %s\n got: %s", i+1, request, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}
