package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// warmBodies returns a /v1/predict body and a 256-statement
// /v1/predict_batch body over distinct statements.
func warmBodies(t testing.TB) (predict, batch []byte) {
	t.Helper()
	predict, err := json.Marshal(cluster.PredictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: testSQL})
	if err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, 256)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT COUNT(*) FROM title WHERE production_year > %d", i)
	}
	if batch, err = json.Marshal(cluster.PredictBatchRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: sqls}); err != nil {
		t.Fatal(err)
	}
	return predict, batch
}

// floorReply is a constant predict reply: the floor handler answers it
// without reading the request, which leaves net/http's, the recorder's
// and the mux's own share of an exchange.
func floorReply(t testing.TB) http.HandlerFunc {
	reply, err := json.Marshal(serving.Prediction{Database: "imdb", Model: costmodel.NameZeroShot,
		RuntimeSec: 0.6054026463707068, OptimizerCost: 52.723636363636366, EstRows: 1, Fingerprint: testSQL})
	if err != nil {
		t.Fatal(err)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply)
	}
}

// TestWarmRequestAllocCeilings pins what a plan-cached /v1/predict and
// a plan-cached 256-statement /v1/predict_batch allocate through the
// shim's mux above the floor handler on the same mux, so that only the
// shim's own allocations count, not those of the toolchain's net/http
// or recorder. The body costs its decoded strings and the statement
// slice, and the reply one Content-Length header.
func TestWarmRequestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers by design")
	}
	mux := newSessionServer(newTestSession(t, serving.Config{}), nil).mux()
	mux.HandleFunc("/floor", floorReply(t))
	predict, batch := warmBodies(t)
	allocs := func(path string, body []byte) float64 {
		serve := func() {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
			}
		}
		serve() // plan and cache every statement
		return testing.AllocsPerRun(50, serve)
	}
	floor := allocs("/floor", predict)
	t.Logf("floor: %.0f allocs per request", floor)
	for _, c := range []struct {
		path    string
		body    []byte
		ceiling float64
	}{
		{"/v1/predict", predict, 12},
		{"/v1/predict_batch", batch, 295},
	} {
		above := allocs(c.path, c.body) - floor
		t.Logf("%s: %.0f allocs per warm request above the floor", c.path, above)
		if above > c.ceiling {
			t.Errorf("warm %s allocates %.0f times above the floor, ceiling %.0f", c.path, above, c.ceiling)
		}
	}
}

// TestReadTimeout runs the scenarios that wait out the real readTimeout
// concurrently, each as its own subtest. They are idle for 10-12 s each,
// and t.Parallel alone overlaps only -parallel (GOMAXPROCS) of them.
func TestReadTimeout(t *testing.T) {
	var wg sync.WaitGroup
	for _, sc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"SlowBodyIsCut", slowBodyIsCut},
		{"SlowCallOutlasts", slowCallOutlasts},
		{"SlowGetOutlasts", slowGetOutlasts},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.Run(sc.name, sc.run)
		}()
	}
	wg.Wait()
}

// slowBodyIsCut: a client that sends its headers and then trickles the
// body has its connection closed once readTimeout has passed, while a
// normal request on another connection still succeeds.
func slowBodyIsCut(t *testing.T) {
	srv := newHTTPServer(newSessionServer(newTestSession(t, serving.Config{}), nil).mux())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/predict HTTP/1.1\r\nHost: zsdb\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n")
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		// One byte every 100 ms: far below any deadline per read, so
		// only the bound on the whole request can end it.
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte(" ")); err != nil {
					return
				}
			}
		}
	}()

	// The trickle is in flight: a normal request on its own connection
	// is answered meanwhile.
	time.Sleep(time.Second)
	predict, _ := warmBodies(t)
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/predict", "application/json", bytes.NewReader(predict))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal request during the trickle: %d", resp.StatusCode)
	}

	// The slow request is answered (its body read failed) and its
	// connection closed within the bound: an EOF, or a reset when the
	// server closed with trickled bytes still unread.
	conn.SetReadDeadline(start.Add(readTimeout + 5*time.Second))
	reply, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("connection not closed %v after the headers (read: %v; got %q)", elapsed, err, reply)
	}
	if elapsed < readTimeout-time.Second || elapsed > readTimeout+2*time.Second {
		t.Fatalf("slow body cut after %v, want about readTimeout (%v)", elapsed, readTimeout)
	}
	if len(reply) > 0 && (!strings.HasPrefix(string(reply), "HTTP/1.1 400 ") || !strings.Contains(string(reply), "bad request body")) {
		t.Fatalf("slow body answered %q", reply)
	}
}

// slowCalls answers Predict after delay, or with the context's error
// if the request's context ends first.
type slowCalls struct {
	calls
	delay time.Duration
}

func (c slowCalls) Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error) {
	select {
	case <-time.After(c.delay):
		return c.calls.Predict(ctx, db, model, sql)
	case <-ctx.Done():
		return serving.Prediction{}, ctx.Err()
	}
}

// slowCallOutlasts: readTimeout bounds the request, not the call. A
// call still running after it keeps its context and answers its result.
func slowCallOutlasts(t *testing.T) {
	s := newSessionServer(newTestSession(t, serving.Config{}), nil)
	s.calls = slowCalls{s.calls, readTimeout + 2*time.Second}
	srv := newHTTPServer(s.mux())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	predict, _ := warmBodies(t)
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/predict", "application/json", bytes.NewReader(predict))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pred serving.Prediction
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil || resp.StatusCode != http.StatusOK || pred.RuntimeSec <= 0 {
		t.Fatalf("slow call: %d %+v (%v)", resp.StatusCode, pred, err)
	}
}

// slowGetOutlasts: the same holds for a bodiless GET, the shape of a
// pprof ?seconds= profile on the -debug-addr listener, which
// newHTTPServer builds too. net/http clears the read deadline once the
// headers are read, so the handler keeps its context past readTimeout
// and its reply arrives.
func slowGetOutlasts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(readTimeout + 2*time.Second):
			io.WriteString(w, "done")
		case <-r.Context().Done():
			http.Error(w, r.Context().Err().Error(), http.StatusRequestTimeout)
		}
	})
	srv := newHTTPServer(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "done" {
		t.Fatalf("slow GET: %d %q (%v)", resp.StatusCode, body, err)
	}
}

// BenchmarkShim measures the HTTP shim over httptest loopback: a
// plan-cached /v1/predict, a plan-cached 256-statement
// /v1/predict_batch, and a handler on the same mux that answers a
// constant predict reply without reading the body, which is net/http's
// own floor for that exchange. ns/op and allocs/op count client and
// server together.
func BenchmarkShim(b *testing.B) {
	sess := newTestSession(b, serving.Config{})
	mux := newSessionServer(sess, nil).mux()
	predict, batch := warmBodies(b)
	mux.HandleFunc("/floor", floorReply(b))
	ts := httptest.NewServer(mux)
	b.Cleanup(ts.Close)
	client := ts.Client()
	post := func(b *testing.B, path string, body []byte) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	for _, c := range []struct {
		name, path string
		body       []byte
	}{
		{"predict", "/v1/predict", predict},
		{"batch256", "/v1/predict_batch", batch},
		{"floor", "/floor", predict},
	} {
		b.Run(c.name, func(b *testing.B) {
			post(b, c.path, c.body) // plan and cache every statement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, c.path, c.body)
			}
		})
	}
}
