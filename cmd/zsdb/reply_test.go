package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// do sends one request and returns the reply with its body read whole.
func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// checkLength fails unless the reply declared a Content-Length equal to
// its body's length.
func checkLength(t *testing.T, what string, resp *http.Response, body []byte) {
	t.Helper()
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", what, cl, len(body))
	}
}

// TestRepliesCarryContentLength: every reply, success or error, goes
// out with a Content-Length equal to its body, and its body bytes are
// those encoding/json writes for it, newline included.
func TestRepliesCarryContentLength(t *testing.T) {
	serve := newTestServer(t).URL
	dead := httptest.NewServer(http.NotFoundHandler())
	hb, err := cluster.NewHTTPBackend("dead", dead.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	router := routerOver(t, cluster.Config{CallTimeout: time.Second}, hb)
	router.CheckHealth(context.Background())
	route := serveHandler(t, newRouterServer(router).mux())

	for _, c := range []struct {
		name, method, url, body string
		status                  int
		want                    string
	}{
		{"predict", http.MethodPost, serve + "/v1/predict", fmt.Sprintf(`{"db":"imdb","model":"zeroshot","sql":%q}`, testSQL), 200,
			`{"db":"imdb","model":"zeroshot","runtime_sec":0.6054026463707068,"optimizer_cost":52.723636363636366,"est_rows":1,"fingerprint":"SELECT COUNT(*) FROM title WHERE production_year \u003e 50","plan_cached":false}`},
		{"GET document", http.MethodGet, serve + "/v1/databases", "", 200,
			`{"databases":[{"name":"imdb","schema":"imdb","tables":6,"plan_cache":{"hits":0,"misses":1,"evictions":0,"size":1,"capacity":4096}},{"name":"ssb","schema":"ssb","tables":5,"plan_cache":{"hits":0,"misses":0,"evictions":0,"size":0,"capacity":4096}}]}`},
		{"malformed body", http.MethodPost, serve + "/v1/predict", `{"db":`, 400,
			`{"error":"bad request body: unexpected EOF"}`},
		{"adapt disabled", http.MethodPost, serve + "/v1/feedback", `{}`, 404,
			`{"code":"adapt_disabled","error":"online adaptation is disabled (restart with -adapt)"}`},
		{"wrong verb", http.MethodGet, serve + "/v1/predict", "", 405,
			`{"error":"POST only"}`},
		{"body too large", http.MethodPost, serve + "/v1/predict", `{"sql":"` + strings.Repeat("x", maxBodyBytes) + `"}`, 413,
			`{"error":"bad request body: http: request body too large"}`},
		{"no healthy replica", http.MethodGet, route + "/healthz", "", 503,
			`{"healthy":0,"replicas":1,"status":"unavailable"}`},
	} {
		resp, body := do(t, c.method, c.url, c.body)
		if resp.StatusCode != c.status || string(body) != c.want+"\n" {
			t.Errorf("%s: %d %q, want %d %q", c.name, resp.StatusCode, body, c.status, c.want+"\n")
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
		checkLength(t, c.name, resp, body)
	}
}

// TestUnencodableReplyIs500: a value encoding/json refuses (here a
// prediction of +Inf) is answered 500 with the error envelope, not 200
// with an empty body.
func TestUnencodableReplyIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, serving.Prediction{RuntimeSec: math.Inf(1)})
	want := `{"error":"encode reply: json: unsupported value: +Inf"}` + "\n"
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
		t.Fatalf("unencodable reply: %d %q, want 500 %q", rec.Code, rec.Body, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(want))
	}
}

// TestConcurrentRepliesAreWhole sends predicts, batches, what-if sweeps
// and stats reads in parallel to one mux: every reply must decode as
// its own type, be the answer to its own request and match its
// Content-Length. A pooled buffer handed out again while its reply is
// still being written would mix or cut replies; under -race the detector
// reports such a reuse even when no two replies happen to overlap.
func TestConcurrentRepliesAreWhole(t *testing.T) {
	url := newTestServer(t).URL
	// fetch posts body (GET when empty) and decodes the reply strictly
	// into v: known members only, nothing after the value.
	fetch := func(path string, body any, v any) error {
		method, in := http.MethodGet, []byte(nil)
		if body != nil {
			var err error
			if in, err = json.Marshal(body); err != nil {
				return err
			}
			method = http.MethodPost
		}
		req, err := http.NewRequest(method, url+path, bytes.NewReader(in))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return err
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("%s: %d %s", path, resp.StatusCode, b)
		case resp.Header.Get("Content-Length") != strconv.Itoa(len(b)):
			return fmt.Errorf("%s: Content-Length %q for a %d-byte body", path, resp.Header.Get("Content-Length"), len(b))
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return fmt.Errorf("%s: %v in %q", path, err, b)
		}
		if rest, _ := io.ReadAll(dec.Buffered()); strings.TrimSpace(string(rest)) != "" {
			return fmt.Errorf("%s: %q after the reply", path, rest)
		}
		return nil
	}
	const workers, rounds = 4, 3
	errs := make(chan error, workers*rounds*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sql := fmt.Sprintf("SELECT COUNT(*) FROM title WHERE production_year > %d", 10*w+r)
				var pred serving.Prediction
				if err := fetch("/v1/predict", cluster.PredictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: sql}, &pred); err != nil {
					errs <- err
				} else if pred.Fingerprint != costmodel.Fingerprint(sql) {
					errs <- fmt.Errorf("predict of %q answered for %q", sql, pred.Fingerprint)
				}
				sqls := make([]string, 8+w)
				for i := range sqls {
					sqls[i] = fmt.Sprintf("SELECT COUNT(*) FROM title WHERE production_year > %d", 100*w+i)
				}
				var batch cluster.PredictBatchReply
				if err := fetch("/v1/predict_batch", cluster.PredictBatchRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: sqls}, &batch); err != nil {
					errs <- err
				} else if batch.Count != len(sqls) || len(batch.Results) != len(sqls) || batch.Errors != 0 {
					errs <- fmt.Errorf("batch of %d answered %d results, count %d, %d errors", len(sqls), len(batch.Results), batch.Count, batch.Errors)
				}
				var rep whatif.Report
				if err := fetch("/v1/whatif", cluster.WhatIfRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: whatIfWorkload[:1+(w+r)%len(whatIfWorkload)]}, &rep); err != nil {
					errs <- err
				} else if rep.Database != "imdb" || len(rep.Variants) == 0 {
					errs <- fmt.Errorf("what-if report for %q with %d variants", rep.Database, len(rep.Variants))
				}
				var st statsResponse
				if err := fetch("/v1/stats", nil, &st); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
