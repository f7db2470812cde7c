// Package doctor collects and analyzes support bundles for zsdb serving
// fleets: the implementation behind `zsdb doctor`.
//
// A support bundle is one gzip'd tar archive holding every diagnostic
// document a set of targets exposes — /v1/stats, /v1/adapt/status,
// /v1/cluster, /v1/models, /v1/bundles, /v1/debug/traces, /v1/events —
// plus a meta.json manifest recording what was collected, from where,
// and what failed. Collection is best-effort by design: a crashed
// replica or a disabled subsystem yields a recorded error or 404, never
// an aborted bundle, because an incomplete view of a sick fleet is
// exactly what the analyzers are for.
//
// Analysis is a pure function of the bundle: AnalyzeAll parses the raw
// documents and runs a fixed catalog of pass/warn/fail checks (replica
// health, ring agreement, bundle generation lag, q-error drift, cache
// hit rates, batch-size sanity, event-ring continuity, latency SLO,
// clock skew). Because analyzers never touch the network, `zsdb doctor
// analyze` reproduces the verdict offline from a saved archive — the
// bundle a user attaches to a report is the bundle the maintainer
// debugs.
package doctor

import (
	"encoding/json"
	"time"
)

// Target is one collection endpoint: a zsdb serve or route base URL.
type Target struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
}

// Endpoint names one diagnostic document and the path it is served at.
type Endpoint struct {
	Name string
	Path string
}

// Endpoints is the fixed catalog of documents a bundle captures per
// target. Optional subsystems (adaptation, clustering, bundles) answer
// 404 when disabled; the capture records that rather than omitting the
// document, so "disabled" and "unreachable" stay distinguishable.
var Endpoints = []Endpoint{
	{Name: "stats", Path: "/v1/stats"},
	{Name: "adapt", Path: "/v1/adapt/status"},
	{Name: "cluster", Path: "/v1/cluster"},
	{Name: "models", Path: "/v1/models"},
	{Name: "bundles", Path: "/v1/bundles"},
	{Name: "traces", Path: "/v1/debug/traces"},
	{Name: "events", Path: "/v1/events"},
}

// Doc is one endpoint's capture from one target.
type Doc struct {
	// Name is the document name from Endpoints.
	Name string `json:"name"`
	// Code is the HTTP status (0 when the transport itself failed).
	Code int `json:"code,omitempty"`
	// Err records a transport failure or a non-200 error body.
	Err string `json:"error,omitempty"`
	// Body is the raw JSON payload (nil unless Code is 200). It is
	// stored as its own archive member, not inside meta.json.
	Body json.RawMessage `json:"-"`
}

// OK reports whether the document was captured successfully.
func (d *Doc) OK() bool { return d != nil && d.Code == 200 && d.Err == "" }

// Capture is everything collected from one target.
type Capture struct {
	Target Target
	Docs   map[string]*Doc // keyed by Endpoint.Name
}

// Doc returns the named document (nil if never attempted).
func (c *Capture) Doc(name string) *Doc { return c.Docs[name] }

// Meta is the bundle manifest, stored as meta.json.
type Meta struct {
	Tool        string    `json:"tool"`
	CollectedAt time.Time `json:"collected_at"`
	Targets     []Target  `json:"targets"`
}

// Bundle is one whole support bundle: the manifest plus every capture.
type Bundle struct {
	Meta     Meta
	Captures []Capture
}
