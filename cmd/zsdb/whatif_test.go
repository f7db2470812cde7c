package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// whatIfWorkload is the deterministic advise workload replayed against
// every topology.
var whatIfWorkload = []string{
	testSQL,
	"SELECT COUNT(*) FROM movie_companies, title WHERE movie_companies.movie_id = title.id",
	"SELECT SUM(title.production_year) FROM title WHERE title.production_year > 20",
}

func postWhatIf(t *testing.T, url string, req cluster.WhatIfRequest) (*http.Response, *whatif.Report) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/whatif", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		t.Fatalf("POST /v1/whatif: status %d, body %v", resp.StatusCode, body)
	}
	var rep whatif.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return resp, &rep
}

// TestServeWhatIf drives the advisor end to end over HTTP against the
// real zero-shot model, and holds every topology to the single
// session's ranking — a sweep is a pure function of (database, model,
// workload), never of where it ran.
func TestServeWhatIf(t *testing.T) {
	single := newTestServer(t)
	req := cluster.WhatIfRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: whatIfWorkload}
	_, repS := postWhatIf(t, single.URL, req)

	if repS.Database != "imdb" || repS.Model != costmodel.NameZeroShot {
		t.Fatalf("report names = (%q, %q)", repS.Database, repS.Model)
	}
	if len(repS.Candidates) == 0 || len(repS.Variants) != len(repS.Candidates) {
		t.Fatalf("candidates/variants = %d/%d", len(repS.Candidates), len(repS.Variants))
	}
	if repS.Baseline.TotalSec <= 0 || len(repS.Baseline.Queries) != len(whatIfWorkload) {
		t.Fatalf("baseline = %+v", repS.Baseline)
	}
	for i, v := range repS.Variants {
		if len(v.Queries) != len(whatIfWorkload) {
			t.Fatalf("variant %s has %d query results", v.Name, len(v.Queries))
		}
		if i > 0 && repS.Variants[i-1].TotalSec > v.TotalSec {
			t.Fatal("variants not ranked by predicted runtime")
		}
	}

	// Topologies agree: same candidates, same ranking, same totals.
	forEachTopology(t, func(t *testing.T, baseURL string) {
		_, repC := postWhatIf(t, baseURL, req)
		if len(repC.Variants) != len(repS.Variants) {
			t.Fatalf("returned %d variants, single %d", len(repC.Variants), len(repS.Variants))
		}
		for i := range repS.Variants {
			s, c := repS.Variants[i], repC.Variants[i]
			if s.Name != c.Name || s.TotalSec != c.TotalSec {
				t.Fatalf("rank %d diverges: single (%s, %v), here (%s, %v)", i, s.Name, s.TotalSec, c.Name, c.TotalSec)
			}
		}
		if repS.Recommendation != repC.Recommendation {
			t.Fatalf("recommendations diverge: %q vs %q", repS.Recommendation, repC.Recommendation)
		}
	})

	// The sweep surfaced in /v1/stats.
	var st serving.Stats
	getJSON(t, single.URL+"/v1/stats", &st)
	if st.WhatIf.Sweeps != 1 || st.WhatIf.Latency.Count != 1 {
		t.Fatalf("whatif stats = %+v", st.WhatIf)
	}
	if st.WhatIf.BatchSizes.Max != float64(repS.Items) {
		t.Fatalf("batch size max %v, want %v", st.WhatIf.BatchSizes.Max, repS.Items)
	}
}

// TestServeWhatIfErrors holds every topology to the same answer for
// every way a sweep can be refused.
func TestServeWhatIfErrors(t *testing.T) {
	forEachTopology(t, func(t *testing.T, baseURL string) {
		post := func(body any) (*http.Response, map[string]json.RawMessage) {
			t.Helper()
			return postJSON(t, baseURL+"/v1/whatif", body)
		}
		wantStatus := func(resp *http.Response, body map[string]json.RawMessage, want int) {
			t.Helper()
			if resp.StatusCode != want {
				t.Fatalf("status %d, want %d (body %v)", resp.StatusCode, want, body)
			}
			if body["error"] == nil {
				t.Fatalf("error body missing structured error field: %v", body)
			}
		}

		// GET is rejected.
		resp, err := http.Get(baseURL + "/v1/whatif")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET status %d, want 405", resp.StatusCode)
		}

		// Empty workload.
		r, b := post(cluster.WhatIfRequest{DB: "imdb"})
		wantStatus(r, b, http.StatusBadRequest)

		// Unknown database.
		r, b = post(cluster.WhatIfRequest{DB: "nosuch", SQL: whatIfWorkload[:1]})
		wantStatus(r, b, http.StatusNotFound)

		// Malformed candidate (no table.column form).
		r, b = post(cluster.WhatIfRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: whatIfWorkload[:1], Candidates: []string{"no_dot"}})
		wantStatus(r, b, http.StatusBadRequest)

		// Unknown candidate column.
		r, b = post(cluster.WhatIfRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: whatIfWorkload[:1], Candidates: []string{"title.nope"}})
		wantStatus(r, b, http.StatusBadRequest)

		// Unparseable workload statement.
		r, b = post(cluster.WhatIfRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: []string{"SELECT nonsense FROM nowhere"}})
		wantStatus(r, b, http.StatusBadRequest)

		// Oversized workload is refused before any planning.
		big := cluster.WhatIfRequest{DB: "imdb", SQL: make([]string, maxBatch+1)}
		for i := range big.SQL {
			big.SQL[i] = testSQL
		}
		r, b = post(big)
		wantStatus(r, b, http.StatusBadRequest)
	})
}
