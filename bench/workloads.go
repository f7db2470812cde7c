package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// Pools are generated from fixed seeds (see pool); --seed drives only the
// order and choice of requests.
const (
	hotPoolSeed   = 101
	batchPoolSeed = 102
	ssbPoolSeed   = 103
	tpchPoolSeed  = 104

	hotPoolSize   = 512
	batchPoolSize = 2048
	batchSize     = 256
	sweepSize     = 16

	// accuracySize is how many ground-truth statements are priced, after
	// the timed windows, to compute qerror_p50 on served answers.
	accuracySize = 256
)

// httpWorkload is one traffic mix against one topology of children.
type httpWorkload struct {
	conns int
	// databases is each serve child's -databases value; backends > 0 puts
	// that many serve children behind one `zsdb route`.
	databases string
	backends  int
	// prewarm is sent once after boot and before warm-up, so the pools a
	// workload calls resident are resident.
	prewarm []request
	stream  *stream
	// accuracy is the ground-truth holdout, phrased as this workload's
	// operation, and the truth aligned with its statements in order.
	accuracy []request
}

// newHTTPWorkload generates the named workload's inputs from seed.
// expectedOps sizes pre-generated fresh statements (a shortfall is
// generated on the fly).
func newHTTPWorkload(e *env, name string, seed int64, expectedOps int) (*httpWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	imdb := e.dbs["imdb"]
	w := &httpWorkload{conns: 2, databases: "imdb"}
	single := func(db, sql string) request { return request{kind: opPredict, db: db, sqls: []string{sql}} }
	var truthSQL []string
	for _, t := range e.truth[:accuracySize] {
		truthSQL = append(truthSQL, t.SQL)
	}
	singlesAccuracy := func() []request {
		var reqs []request
		for _, sql := range truthSQL {
			reqs = append(reqs, single("imdb", sql))
		}
		return reqs
	}

	switch name {
	case "hot-singles":
		p := pool(imdb, hotPoolSize, hotPoolSeed)
		for _, sql := range p {
			w.prewarm = append(w.prewarm, single("imdb", sql))
		}
		draw := zipf(rng, len(p))
		w.stream = newStream(func() request { return single("imdb", p[draw()]) })
		w.accuracy = singlesAccuracy()

	case "cold-singles":
		w.databases = "imdb,ssb,tpch"
		kinds := []string{"imdb", "ssb", "tpch"}
		fresh := make([]*distinct, len(kinds))
		for i, k := range kinds {
			fresh[i] = newDistinct(e.dbs[k], seed*int64(len(kinds))+int64(i))
			fresh[i].fill(expectedOps/len(kinds) + 1)
		}
		i := 0
		w.stream = newStream(func() request {
			k := i % len(kinds)
			i++
			return single(kinds[k], fresh[k].take())
		})
		w.accuracy = singlesAccuracy()

	case "warm-batch":
		p := pool(imdb, batchPoolSize, batchPoolSeed)
		for lo := 0; lo < len(p); lo += batchSize {
			w.prewarm = append(w.prewarm, request{kind: opBatch, db: "imdb", sqls: p[lo : lo+batchSize]})
		}
		w.stream = newStream(func() request {
			sqls := make([]string, batchSize)
			for j := range sqls {
				sqls[j] = p[rng.Intn(len(p))]
			}
			return request{kind: opBatch, db: "imdb", sqls: sqls}
		})
		w.accuracy = []request{{kind: opBatch, db: "imdb", sqls: truthSQL}}

	case "whatif-sweep":
		fresh := newDistinct(imdb, seed)
		fresh.fill(expectedOps * sweepSize)
		w.stream = newStream(func() request {
			sqls := make([]string, sweepSize)
			for j := range sqls {
				sqls[j] = fresh.take()
			}
			return request{kind: opWhatIf, db: "imdb", sqls: sqls}
		})
		for lo := 0; lo < len(truthSQL); lo += sweepSize {
			w.accuracy = append(w.accuracy, request{kind: opWhatIf, db: "imdb", sqls: truthSQL[lo : lo+sweepSize]})
		}

	case "routed-singles":
		// One connection: four processes already share the two cores, and
		// routed minus hot at one connection is the cost of the hop.
		w.conns, w.databases, w.backends = 1, "imdb,ssb,tpch", 2
		mix := []struct {
			db    string
			share float64
			pool  []string
		}{
			{"imdb", 0.6, pool(imdb, hotPoolSize, hotPoolSeed)},
			{"ssb", 0.3, pool(e.dbs["ssb"], hotPoolSize, ssbPoolSeed)},
			{"tpch", 0.1, pool(e.dbs["tpch"], hotPoolSize, tpchPoolSeed)},
		}
		draws := make([]func() int, len(mix))
		for i, m := range mix {
			for _, sql := range m.pool {
				w.prewarm = append(w.prewarm, single(m.db, sql))
			}
			draws[i] = zipf(rng, len(m.pool))
		}
		w.stream = newStream(func() request {
			u, i := rng.Float64(), 0
			for ; i < len(mix)-1 && u >= mix[i].share; i++ {
				u -= mix[i].share
			}
			return single(mix[i].db, mix[i].pool[draws[i]()])
		})
		w.accuracy = singlesAccuracy()

	default:
		return nil, fmt.Errorf("unknown HTTP workload %q", name)
	}
	return w, nil
}

// batchReply mirrors the /v1/predict_batch body.
type batchReply struct {
	Results []struct {
		RuntimeSec float64 `json:"runtime_sec"`
		Error      string  `json:"error"`
	} `json:"results"`
	Count  int `json:"count"`
	Errors int `json:"errors"`
}

// reply is a decoded, well-formed answer: how many items it priced and
// the prediction for each of the request's statements (for a sweep, the
// baseline variant's).
type reply struct {
	items int
	preds []float64
	// The full answer, for the comparison against the reference: the
	// decoded prediction of a single, the raw body of a sweep.
	single serving.Prediction
	raw    []byte
}

// decode checks that a 200 body is a well-formed answer to r.
func (r request) decode(body []byte) (reply, error) {
	var rep reply
	switch r.kind {
	case opPredict:
		if err := json.Unmarshal(body, &rep.single); err != nil {
			return rep, err
		}
		if rep.single.Database != r.db || rep.single.Fingerprint == "" {
			return rep, fmt.Errorf("predict reply for db %q fingerprint %q", rep.single.Database, rep.single.Fingerprint)
		}
		rep.items, rep.preds = 1, []float64{rep.single.RuntimeSec}
	case opBatch:
		var b batchReply
		if err := json.Unmarshal(body, &b); err != nil {
			return rep, err
		}
		if b.Count != len(r.sqls) || len(b.Results) != len(r.sqls) || b.Errors != 0 {
			return rep, fmt.Errorf("batch reply: count %d, %d results, %d errors for %d statements", b.Count, len(b.Results), b.Errors, len(r.sqls))
		}
		rep.items = b.Count
		for _, item := range b.Results {
			rep.preds = append(rep.preds, item.RuntimeSec)
		}
	case opWhatIf:
		var s whatif.Report
		if err := json.Unmarshal(body, &s); err != nil {
			return rep, err
		}
		rep.raw = body
		if len(s.Baseline.Queries) != len(r.sqls) || s.Items != (len(s.Variants)+1)*len(r.sqls) || s.Baseline.Errors != 0 {
			return rep, fmt.Errorf("whatif reply: %d items, %d variants, %d baseline queries, %d baseline errors", s.Items, len(s.Variants), len(s.Baseline.Queries), s.Baseline.Errors)
		}
		rep.items = s.Items
		for _, q := range s.Baseline.Queries {
			rep.preds = append(rep.preds, q.PredictedSec)
		}
	}
	for _, p := range rep.preds {
		if !(p > 0) || math.IsInf(p, 0) {
			return rep, fmt.Errorf("prediction %v is not a positive finite runtime", p)
		}
	}
	return rep, nil
}

// local answers r from an in-process Session, in the shape decode gives
// a served answer.
func (r request) local(sess *serving.Session) (reply, error) {
	ctx := context.Background()
	var rep reply
	switch r.kind {
	case opPredict:
		p, err := sess.Predict(ctx, r.db, "", r.sqls[0])
		if err != nil {
			return rep, err
		}
		rep.items, rep.preds, rep.single = 1, []float64{p.RuntimeSec}, p
	case opBatch:
		res, err := sess.PredictBatch(ctx, r.db, "", r.sqls)
		if err != nil {
			return rep, err
		}
		rep.items = len(res.Items)
		for i, item := range res.Items {
			if item.Err != nil {
				return rep, fmt.Errorf("batch item %d %q: %w", i, r.sqls[i], item.Err)
			}
			rep.preds = append(rep.preds, item.RuntimeSec)
		}
	case opWhatIf:
		sweep, err := sess.WhatIf(ctx, r.db, "", whatif.Request{SQL: r.sqls, MaxCandidates: whatIfCandidates})
		if err != nil {
			return rep, err
		}
		rep.items = sweep.Items
		for _, q := range sweep.Baseline.Queries {
			rep.preds = append(rep.preds, q.PredictedSec)
		}
		// The server encodes the same struct with the same encoder, so
		// equal reports are equal bytes.
		if rep.raw, err = json.Marshal(sweep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// verify compares a served answer, bit for bit, with what an in-process
// Session over the same model file and the same generated databases
// answers. JSON carries float64 exactly (shortest round-trip form), so
// equality is the right test. Whether the plan was cached is the one
// field that depends on history rather than on the request.
func (r request) verify(ref *serving.Session, got reply) error {
	want, err := r.local(ref)
	if err != nil {
		return err
	}
	got.single.PlanCached = want.single.PlanCached
	if got.single != want.single || !slices.Equal(got.preds, want.preds) || !bytes.Equal(bytes.TrimSpace(got.raw), want.raw) {
		return fmt.Errorf("%s %q...: served answer differs from the reference (predictions %v vs %v)", r.path(), r.sqls[0], head(got.preds), head(want.preds))
	}
	return nil
}

func head(xs []float64) []float64 { return xs[:min(len(xs), 4)] }

// newReference builds the in-process Session answers are checked against.
func newReference(e *env, databases []string) (*serving.Session, error) {
	return newSession(e, databases, serving.Config{})
}

// newSession builds a Session over the benchmark model and the named
// generated databases, as `zsdb serve` assembles its own.
func newSession(e *env, databases []string, cfg serving.Config) (*serving.Session, error) {
	est, err := loadModel(e.model)
	if err != nil {
		return nil, err
	}
	sess := serving.NewSession(cfg)
	if err := sess.AttachModel(est); err != nil {
		return nil, err
	}
	for _, kind := range databases {
		if err := sess.AttachDatabase(kind, e.dbs[kind]); err != nil {
			return nil, err
		}
	}
	return sess, nil
}
