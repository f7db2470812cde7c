package doctor

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// Status is one check's verdict. Worst-of aggregation makes a bundle's
// overall verdict the worst finding in it.
type Status string

const (
	Pass Status = "pass"
	Warn Status = "warn"
	Fail Status = "fail"
	// Skip marks a check whose subsystem is disabled or absent — not a
	// problem, just not applicable.
	Skip Status = "skip"
)

// severity orders statuses for worst-of aggregation; Skip ranks zero.
var severity = map[Status]int{Pass: 1, Warn: 2, Fail: 3}

// Finding is one check's result against one target (or the whole
// bundle, when Target is empty).
type Finding struct {
	Check  string `json:"check"`
	Status Status `json:"status"`
	Target string `json:"target,omitempty"`
	Detail string `json:"detail"`
}

// The thresholds are constants, not options: each has one value in use,
// and a caller that needs another is what would justify a parameter.
const (
	// qErrorWarn / qErrorFail bound the median q-error of an adaptation
	// drift window, judged only at qErrorMinSamples occupancy and above
	// (cold windows have meaningless medians).
	qErrorWarn       = 1.5
	qErrorFail       = 3.0
	qErrorMinSamples = 10
	// cacheHitFloor is the plan / what-if cache hit rate below which a
	// database warns, once it has seen cacheMinTraffic lookups.
	cacheHitFloor   = 0.2
	cacheMinTraffic = 50
	// p99WarnMs / p99FailMs bound the predict p99 latency.
	p99WarnMs = 250.0
	p99FailMs = 1000.0
	// bundleLagWarn / bundleLagFail bound how many revisions a replica
	// may trail the store head.
	bundleLagWarn = 1
	bundleLagFail = 2
	// clockSkewWarn bounds the spread of collected_at stamps across the
	// fleet.
	clockSkewWarn = 30 * time.Second
)

// ladder is the two-rung threshold verdict: Fail at or above fail, Warn
// at or above warn, Pass below both.
func ladder(value, warn, fail float64) Status {
	if value >= fail {
		return Fail
	}
	if value >= warn {
		return Warn
	}
	return Pass
}

// Every captured document decodes into the type its server encoded it
// from, so a renamed field is a compile error here, not a check gone
// blind; encoding/json ignores unknown fields and zeroes absent ones, so
// archives from older and newer builds still analyze. Declared here are
// only the unions for the endpoints that answer in two shapes and the
// two bodies the servers write as map literals.

// statsDoc covers both /v1/stats bodies: a session's (serving.Stats at
// top level) and a router's (a replicas array). cluster.ClusterStats is
// not embedded beside serving.Stats: both carry collected_at and
// requests at one depth, and encoding/json silently drops such fields.
type statsDoc struct {
	serving.Stats
	Replicas []cluster.ReplicaStats `json:"replicas"`
}

// adaptDoc covers both /v1/adapt/status bodies: a session's (one
// status) and a router's ({"replicas": {name: status}}).
type adaptDoc struct {
	adapt.Status
	Replicas map[string]adapt.Status `json:"replicas"`
}

// bundlesDoc is the part of the /v1/bundles body the checks read: the
// store's retained revisions and each replica's distributor status.
type bundlesDoc struct {
	Revisions []bundle.Manifest        `json:"revisions"`
	Replicas  map[string]bundle.Status `json:"replicas"`
}

// eventsDoc is the /v1/events body.
type eventsDoc struct {
	Head   int64       `json:"head"`
	Events []obs.Event `json:"events"`
}

// capture is one target's documents, decoded once for every check. A
// nil document was not captured — disabled, unreachable or never
// attempted, which raw still tells apart — or has a failing finding,
// with the decoder's error, in undecodable.
type capture struct {
	raw         *Capture
	stats       *statsDoc
	ring        *cluster.RingView
	adapt       *adaptDoc
	bundles     *bundlesDoc
	events      *eventsDoc
	undecodable []Finding
}

// decodeDoc unmarshals one captured document; nil when it is absent,
// failed, or malformed (the last is recorded on c).
func decodeDoc[T any](c *capture, name string) *T {
	d := c.raw.Doc(name)
	if !d.OK() {
		return nil
	}
	var doc T
	if err := json.Unmarshal(d.Body, &doc); err != nil {
		c.undecodable = append(c.undecodable, judged(Fail, "%s captured but does not decode: %v", name, err)...)
		return nil
	}
	return &doc
}

func decodeCapture(raw *Capture) *capture {
	c := &capture{raw: raw}
	c.stats = decodeDoc[statsDoc](c, "stats")
	c.ring = decodeDoc[cluster.RingView](c, "cluster")
	c.adapt = decodeDoc[adaptDoc](c, "adapt")
	c.bundles = decodeDoc[bundlesDoc](c, "bundles")
	c.events = decodeDoc[eventsDoc](c, "events")
	return c
}

// sessions flattens a capture's stats document into its serving
// sessions, every one with a snapshot and the name findings give it: a
// lone serve process is a fleet of one named after its target, a
// cluster's replica is target/replica.
func (c *capture) sessions() []cluster.ReplicaStats {
	switch {
	case c.stats == nil:
		return nil
	case len(c.stats.Replicas) == 0:
		return []cluster.ReplicaStats{{Name: c.raw.Target.Name, Serving: &c.stats.Stats}}
	}
	var out []cluster.ReplicaStats
	for _, r := range c.stats.Replicas {
		if r.Serving != nil {
			r.Name = c.raw.Target.Name + "/" + r.Name
			out = append(out, r)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// check is one row of the catalog. Exactly one judging function is set:
// perCapture judges one target's documents, perSession one serving
// session, fleet every capture at once. It returns findings carrying a
// status and a detail (AnalyzeAll stamps check and target on them), or
// nil when its subject lacks what the check reads; a check nothing
// answered is reported once as Skip with the row's skip message.
type check struct {
	name, skip string
	perCapture func(*capture) []Finding
	perSession func(*serving.Stats) []Finding
	fleet      func([]*capture) []Finding
}

func judged(s Status, format string, args ...any) []Finding {
	return []Finding{{Status: s, Detail: fmt.Sprintf(format, args...)}}
}

// catalog is every check in report order. collection has no skip
// message: it answers for every target, so only a bundle without
// targets leaves it silent.
var catalog = []check{
	{name: "collection", perCapture: judgeCollection},
	{name: "replica-health", skip: "no cluster view captured", perCapture: judgeReplicaHealth},
	{name: "ring-agreement", skip: "no cluster view captured", perCapture: judgeRingAgreement},
	{name: "bundle-generations", skip: "bundle distribution disabled", perCapture: judgeBundleGenerations},
	{name: "qerror-drift", skip: "online adaptation disabled", perCapture: judgeQErrorDrift},
	{name: "cache-hit-rate", skip: "no serving stats captured", perSession: judgeCacheHitRates},
	{name: "batch-sizes", skip: "no serving stats captured", perSession: judgeBatchSizes},
	{name: "event-gaps", skip: "no event log captured", perCapture: judgeEventGaps},
	{name: "latency-slo", skip: "no serving stats captured", perSession: judgeLatencySLO},
	{name: "clock-skew", skip: "fewer than two timestamped sessions", fleet: judgeClockSkew},
}

// AnalyzeAll runs the whole check catalog over a bundle and returns the
// findings, grouped by check. It never touches the network: the same
// bundle always yields the same findings.
func AnalyzeAll(b *Bundle) []Finding {
	captures := make([]*capture, len(b.Captures))
	for i := range b.Captures {
		captures[i] = decodeCapture(&b.Captures[i])
	}
	var out []Finding
	for _, ck := range catalog {
		answered := len(out)
		emit := func(target string, found []Finding) {
			for _, f := range found {
				f.Check, f.Target = ck.name, target
				out = append(out, f)
			}
		}
		switch {
		case ck.fleet != nil:
			emit("", ck.fleet(captures))
		case ck.perSession != nil:
			for _, c := range captures {
				for _, s := range c.sessions() {
					emit(s.Name, ck.perSession(s.Serving))
				}
			}
		default:
			for _, c := range captures {
				emit(c.raw.Target.Name, ck.perCapture(c))
			}
		}
		if len(out) == answered && ck.skip != "" {
			out = append(out, Finding{Check: ck.name, Status: Skip, Detail: ck.skip})
		}
	}
	return out
}

// Verdict is the worst finding's status (Pass for an empty list — but
// AnalyzeAll emits at least the collection check for every target).
func Verdict(findings []Finding) Status {
	v := Pass
	for _, f := range findings {
		if severity[f.Status] > severity[v] {
			v = f.Status
		}
	}
	return v
}

// judgeCollection fails for any target whose core stats document was
// not captured — an unreachable target makes every other verdict
// partial, and that must be loud. For the same reason it fails for
// every document that arrived but does not decode: the checks reading
// it would otherwise skip as if its subsystem were off.
func judgeCollection(c *capture) []Finding {
	var out []Finding
	switch d := c.raw.Doc("stats"); {
	case c.stats != nil:
		out = judged(Pass, "stats captured")
	case d == nil:
		out = judged(Fail, "stats never collected")
	case !d.OK():
		out = judged(Fail, "stats unavailable (HTTP %d): %s", d.Code, d.Err)
	}
	return append(out, c.undecodable...)
}

// judgeReplicaHealth reads the cluster view's health map: every replica
// must be up. A session's stats without a cluster view is a lone serve
// process, which has no ring to be unhealthy.
func judgeReplicaHealth(c *capture) []Finding {
	if c.ring == nil {
		if c.stats != nil && len(c.stats.Replicas) == 0 {
			return judged(Pass, "single session, no ring")
		}
		return nil
	}
	var down []string
	for _, name := range c.ring.Replicas {
		if !c.ring.Healthy[name] {
			down = append(down, name)
		}
	}
	slices.Sort(down)
	if len(down) > 0 {
		return judged(Fail, "%d/%d replicas down: %s", len(down), len(c.ring.Replicas), strings.Join(down, ", "))
	}
	return judged(Pass, "%d/%d replicas healthy", len(c.ring.Replicas), len(c.ring.Replicas))
}

// judgeRingAgreement checks the cluster view's internal consistency:
// every database's owner must head its failover route, and routes may
// name only registered replicas.
func judgeRingAgreement(c *capture) []Finding {
	if c.ring == nil {
		return nil
	}
	var problems []string
	for _, db := range sortedKeys(c.ring.Owners) {
		owner, route := c.ring.Owners[db], c.ring.Routes[db]
		switch {
		case len(route) == 0:
			problems = append(problems, fmt.Sprintf("%s has no route", db))
		case route[0] != owner:
			problems = append(problems, fmt.Sprintf("%s owned by %s but routed first to %s", db, owner, route[0]))
		}
		for _, r := range route {
			if !slices.Contains(c.ring.Replicas, r) {
				problems = append(problems, fmt.Sprintf("%s routes through unregistered replica %s", db, r))
			}
		}
	}
	if len(problems) > 0 {
		return judged(Fail, "%s", strings.Join(problems, "; "))
	}
	return judged(Pass, "owners head their routes for %d databases", len(c.ring.Owners))
}

// judgeBundleGenerations checks that no replica trails the bundle store
// head by more than the allowed revision lag.
func judgeBundleGenerations(c *capture) []Finding {
	if c.bundles == nil {
		return nil
	}
	var head int64
	for _, m := range c.bundles.Revisions {
		head = max(head, m.Revision)
	}
	if head == 0 {
		return judged(Pass, "store empty, nothing to lag behind")
	}
	var worst int64
	var lagged []string
	for _, name := range sortedKeys(c.bundles.Replicas) {
		if rev := c.bundles.Replicas[name].Revision; rev < head {
			lagged = append(lagged, fmt.Sprintf("%s at rev %d (head %d)", name, rev, head))
			worst = max(worst, head-rev)
		}
	}
	st := ladder(float64(worst), bundleLagWarn, bundleLagFail)
	if st == Pass {
		return judged(Pass, "all %d replicas at head revision %d", len(c.bundles.Replicas), head)
	}
	return judged(st, "%s", strings.Join(lagged, "; "))
}

// judgeQErrorDrift judges each adaptation drift window's median q-error
// against the accuracy bounds.
func judgeQErrorDrift(c *capture) []Finding {
	if c.adapt == nil {
		return nil
	}
	statuses := c.adapt.Replicas
	if len(statuses) == 0 && c.adapt.Model != "" {
		statuses = map[string]adapt.Status{c.raw.Target.Name: c.adapt.Status}
	}
	var out []Finding
	for _, name := range sortedKeys(statuses) {
		for _, w := range statuses[name].Windows {
			if w.QError.Size >= qErrorMinSamples {
				out = append(out, judged(ladder(w.QError.P50, qErrorWarn, qErrorFail),
					"%s/%s median q-error %.2f over %d samples", name, w.Database, w.QError.P50, w.QError.Size)...)
			}
		}
	}
	if len(out) == 0 {
		return judged(Pass, "no drift window has enough feedback to judge")
	}
	return out
}

// judgeCacheHitRates warns for any database whose plan (or what-if)
// cache hit rate sits below the floor despite real traffic.
func judgeCacheHitRates(st *serving.Stats) []Finding {
	var out []Finding
	judge := func(db, label string, hits, misses int64) {
		lookups := hits + misses
		rate := float64(hits) / float64(max(lookups, 1))
		switch {
		case lookups < cacheMinTraffic: // a cold cache is not a sick cache
			out = append(out, judged(Pass, "%s/%s: %d lookups, too few to judge", db, label, lookups)...)
		case rate < cacheHitFloor:
			out = append(out, judged(Warn, "%s/%s hit rate %.0f%% below %.0f%% floor over %d lookups",
				db, label, 100*rate, 100*cacheHitFloor, lookups)...)
		default:
			out = append(out, judged(Pass, "%s/%s hit rate %.0f%% over %d lookups", db, label, 100*rate, lookups)...)
		}
	}
	for _, db := range st.Databases {
		judge(db.Database, "plan cache", db.PlanCache.Hits, db.PlanCache.Misses)
		if db.WhatIfCache != nil { // only in bundles from older servers
			judge(db.Database, "what-if cache", db.WhatIfCache.Hits, db.WhatIfCache.Misses)
		}
	}
	return out
}

// judgeBatchSizes sanity-checks the micro-batch scheduler counters:
// items and batches must cohere, and the size distribution must stay
// within the observed maximum.
func judgeBatchSizes(st *serving.Stats) []Finding {
	s := st.Scheduler
	switch {
	case s.Batches == 0 && s.Items == 0:
		return judged(Pass, "no batched traffic yet")
	case s.Batches == 0 || s.Items < s.Batches:
		return judged(Fail, "impossible counters: %d items across %d batches", s.Items, s.Batches)
	case s.MeanBatchSize < 1 || float64(s.MaxBatchSize) < s.MeanBatchSize:
		return judged(Fail, "mean batch size %.2f outside [1, max %d]", s.MeanBatchSize, s.MaxBatchSize)
	case s.BatchSizes.Max > float64(s.MaxBatchSize):
		return judged(Fail, "size window max %.0f exceeds lifetime max %d", s.BatchSizes.Max, s.MaxBatchSize)
	}
	return judged(Pass, "mean %.2f, max %d over %d batches", s.MeanBatchSize, s.MaxBatchSize, s.Batches)
}

// judgeEventGaps checks event-ring continuity: within one snapshot the
// sequence numbers must be consecutive — a hole means events were
// dropped, not merely evicted (eviction trims the oldest edge).
func judgeEventGaps(c *capture) []Finding {
	if c.events == nil {
		return nil
	}
	evs, head := c.events.Events, c.events.Head
	for j := 1; j < len(evs); j++ {
		if evs[j].Seq != evs[j-1].Seq+1 {
			return judged(Fail, "sequence gap: %d then %d", evs[j-1].Seq, evs[j].Seq)
		}
	}
	if len(evs) > 0 && evs[len(evs)-1].Seq > head {
		return judged(Fail, "event seq %d beyond advertised head %d", evs[len(evs)-1].Seq, head)
	}
	return judged(Pass, "%d events contiguous through seq %d", len(evs), head)
}

// judgeLatencySLO judges a session's predict p99 against the latency
// objective.
func judgeLatencySLO(st *serving.Stats) []Finding {
	p := st.Predict
	switch rung := ladder(p.P99Ms, p99WarnMs, p99FailMs); {
	case p.Count == 0:
		return judged(Pass, "no predictions yet")
	case rung == Fail:
		return judged(Fail, "predict p99 %.1fms breaches %.0fms", p.P99Ms, p99FailMs)
	case rung == Warn:
		return judged(Warn, "predict p99 %.1fms above %.0fms objective", p.P99Ms, p99WarnMs)
	}
	return judged(Pass, "predict p99 %.1fms (p50 %.1fms) over %d requests", p.P99Ms, p.P50Ms, p.Count)
}

// judgeClockSkew warns when the spread of collected_at stamps across
// the fleet exceeds the bound — stats that disagree about "now" cannot
// be compared as one moment.
func judgeClockSkew(captures []*capture) []Finding {
	var stamps []time.Time
	for _, c := range captures {
		for _, s := range c.sessions() {
			if !s.Serving.CollectedAt.IsZero() {
				stamps = append(stamps, s.Serving.CollectedAt)
			}
		}
	}
	if len(stamps) < 2 {
		return nil
	}
	slices.SortFunc(stamps, time.Time.Compare)
	spread := stamps[len(stamps)-1].Sub(stamps[0])
	if spread > clockSkewWarn {
		return judged(Warn, "collected_at stamps spread %v across %d sessions", spread.Round(time.Millisecond), len(stamps))
	}
	return judged(Pass, "stamps within %v across %d sessions", spread.Round(time.Millisecond), len(stamps))
}

// RenderTable formats findings as the `zsdb doctor` verdict table.
func RenderTable(findings []Finding) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s  %-20s  %-24s  %s\n", "", "CHECK", "TARGET", "DETAIL")
	for _, f := range findings {
		mark := map[Status]string{Pass: "ok", Warn: "WARN", Fail: "FAIL", Skip: "-"}[f.Status]
		fmt.Fprintf(&sb, "%-4s  %-20s  %-24s  %s\n", mark, f.Check, f.Target, f.Detail)
	}
	fmt.Fprintf(&sb, "verdict: %s\n", Verdict(findings))
	return sb.String()
}
