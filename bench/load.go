package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// verifyEvery is how often a served answer is kept for the bitwise
// comparison with the reference Session.
const verifyEvery = 64

// topology is one booted set of children with the address load goes to.
type topology struct {
	serves []*child
	router *child
}

func (t *topology) all() []*child {
	if t.router != nil {
		return append([]*child{t.router}, t.serves...)
	}
	return t.serves
}

func (t *topology) pids() []int {
	var pids []int
	for _, c := range t.all() {
		pids = append(pids, c.pid())
	}
	return pids
}

func (t *topology) url() string {
	if t.router != nil {
		return "http://" + t.router.addr
	}
	return "http://" + t.serves[0].addr
}

func (t *topology) stop() {
	for _, c := range t.all() {
		c.stop()
	}
}

// boot starts the workload's children with tracing off unless
// traceSample > 0, waits for /healthz, and sends the prewarm requests: the
// topology it returns is ready in the sense setup_s means.
func (w *httpWorkload) boot(e *env, traceSample int) (*topology, phase, error) {
	t := &topology{}
	var ph phase
	fail := func(err error) (*topology, phase, error) {
		t.stop()
		return nil, ph, err
	}
	n := max(w.backends, 1)
	for i := 0; i < n; i++ {
		c, err := startChild(e.zsdb, "serve", "-models", e.model, "-databases", w.databases,
			"-addr", "127.0.0.1:0", "-trace-sample", fmt.Sprint(traceSample))
		if err != nil {
			return fail(err)
		}
		t.serves = append(t.serves, c)
	}
	if w.backends > 0 {
		var urls, names []string
		for i, c := range t.serves {
			urls = append(urls, "http://"+c.addr)
			names = append(names, fmt.Sprintf("b%d", i))
		}
		c, err := startChild(e.zsdb, "route", "-backends", strings.Join(urls, ","), "-names", strings.Join(names, ","),
			"-addr", "127.0.0.1:0", "-trace-sample", fmt.Sprint(traceSample))
		if err != nil {
			return fail(err)
		}
		t.router = c
	}
	cl := newClient()
	for _, c := range t.all() {
		resp, err := cl.Get("http://" + c.addr + "/healthz")
		if err != nil {
			return fail(fmt.Errorf("healthz %s: %w", c.addr, err))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fail(fmt.Errorf("healthz %s: status %d", c.addr, resp.StatusCode))
		}
	}
	for _, r := range w.prewarm {
		if _, _, _, err := do(cl, t.url(), r); err != nil {
			ph.fail(err)
		}
		ph.attempted++
	}
	return t, ph, nil
}

// phase counts the operations of one part of a run; wrong answers and
// non-200 replies are failures like any other.
type phase struct {
	attempted, failed int
	firstErr          error
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *phase) add(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// newClient returns a client that keeps exactly one connection: each load
// connection owns one, so "2 connections" means two sockets.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// do sends one request and returns its decoded reply, the body size and
// the instant the body had been read in full (decoding comes after it and
// is not part of the latency).
func do(cl *http.Client, base string, r request) (reply, int, time.Time, error) {
	resp, err := cl.Post(base+r.path(), "application/json", bytes.NewReader(r.body()))
	if err != nil {
		return reply{}, 0, time.Now(), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	read := time.Now()
	if err != nil {
		return reply{}, 0, read, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, len(body), read, fmt.Errorf("%s: status %d: %s", r.path(), resp.StatusCode, bytes.TrimSpace(body))
	}
	rep, err := r.decode(body)
	return rep, len(body), read, err
}

// kept is one served answer held back for the reference comparison, which
// runs after the timed phase so it does not compete with the server for
// the two cores.
type kept struct {
	req request
	rep reply
}

// loadResult is what the closed loop observed.
type loadResult struct {
	samples   []opSample
	kept      []kept
	ph        phase
	respBytes int64
	items     int64
}

// drive runs conns closed-loop connections against base until start+dur,
// stamping samples with offsets from start: each
// sends its next request only after reading the previous reply in full,
// as a query optimizer blocked on its cost estimate does.
func drive(base string, s *stream, conns int, start time.Time, dur time.Duration) loadResult {
	results := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for n := 0; ; n++ {
				r := s.next()
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				rep, size, read, err := do(cl, base, r)
				res.ph.attempted++
				if err != nil {
					res.ph.fail(err)
				} else if n%verifyEvery == 0 {
					res.kept = append(res.kept, kept{r, rep})
				}
				res.samples = append(res.samples, opSample{start: t0.Sub(start), end: read.Sub(start), items: rep.items, ok: err == nil})
				res.respBytes += int64(size)
				res.items += int64(rep.items)
			}
		}(&results[c])
	}
	wg.Wait()
	var all loadResult
	for _, r := range results {
		all.samples = append(all.samples, r.samples...)
		all.kept = append(all.kept, r.kept...)
		all.ph.add(r.ph)
		all.respBytes += r.respBytes
		all.items += r.items
	}
	return all
}

// measured is one timed load phase: the closed loop's observations cut
// into windows, with the CPU time of the system under test per window.
type measured struct {
	loadResult
	win windowed
	// clientShare is the harness's share of all CPU time spent during the
	// phase: how much of the two cores the load generator itself took.
	clientShare float64
	// stealPct is the hypervisor's steal time during the phase, as a
	// percentage of one CPU.
	stealPct float64
}

// measure runs load for warm-up plus seconds, reads cpu (microseconds
// consumed so far by the system under test) at every window edge, and
// cuts the result into windows.
func measure(load func(start time.Time, dur time.Duration) loadResult, cpu func() (float64, error), warmup, seconds time.Duration) (measured, error) {
	bounds := equalBounds(warmup, warmup+seconds, numWindows)
	done := make(chan loadResult, 1)
	start := time.Now()
	go func() { done <- load(start, warmup+seconds) }()
	at := make([]float64, len(bounds))
	var selfStart, stealStart float64
	for k, b := range bounds {
		time.Sleep(time.Until(start.Add(b)))
		us, err := cpu()
		if err != nil {
			<-done
			return measured{}, err
		}
		at[k] = us
		if k == 0 {
			selfStart, stealStart = selfCPUUs(), stealTicks()
		}
	}
	self := selfCPUUs() - selfStart
	m := measured{loadResult: <-done}
	m.stealPct = 100 * (stealTicks() - stealStart) / userHz / seconds.Seconds()
	perWindow := make([]float64, numWindows)
	for k := range perWindow {
		perWindow[k] = at[k+1] - at[k]
	}
	m.win = cut(m.samples, bounds, perWindow)
	if total := self + at[numWindows] - at[0]; total > 0 {
		m.clientShare = self / total
	}
	return m, nil
}

// measureHTTP measures a booted topology under the workload's stream.
func measureHTTP(t *topology, s *stream, conns int, warmup, seconds time.Duration) (measured, error) {
	pids := t.pids()
	m, err := measure(
		func(start time.Time, dur time.Duration) loadResult { return drive(t.url(), s, conns, start, dur) },
		func() (float64, error) { return cpuUs(pids) },
		warmup, seconds)
	if err == nil && m.win.ops == 0 {
		err = fmt.Errorf("no operation completed in %v (%v)", seconds, m.ph.firstErr)
	}
	return m, err
}

// checkKept compares every kept answer with the reference.
func checkKept(ref *serving.Session, ks []kept) phase {
	var ph phase
	for _, k := range ks {
		ph.attempted++
		if err := k.req.verify(ref, k.rep); err != nil {
			ph.fail(err)
		}
	}
	return ph
}

// servedQError prices the ground-truth holdout through the topology, as
// the workload's own operation, and returns the median q-error of the
// served predictions.
func servedQError(t *topology, w *httpWorkload, truth []truthRec) (float64, phase) {
	var ph phase
	var qs []float64
	cl := newClient()
	defer cl.CloseIdleConnections()
	i := 0
	for _, r := range w.accuracy {
		ph.attempted++
		rep, _, _, err := do(cl, t.url(), r)
		if err != nil {
			ph.fail(err)
			i += len(r.sqls)
			continue
		}
		for _, p := range rep.preds {
			qs = append(qs, qerror(p, truth[i].RuntimeSec))
			i++
		}
	}
	return median(qs), ph
}

// fetchStats reads one serve child's /v1/stats.
func fetchStats(c *child) (serving.Stats, error) {
	var st serving.Stats
	resp, err := newClient().Get("http://" + c.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
