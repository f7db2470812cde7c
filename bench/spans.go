package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Parent is the index of the enclosing span (-1
// for a root); spans of one replayed request share Req.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// recorder keeps spans in memory for one goroutine; nothing is written
// until the run ends. Span names reuse the serving.Stage* vocabulary
// (parse, optimize, featurize, encode, predict) where they coincide.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// call times fn as a span under the innermost open one; a nil recorder
// just calls it, so timed runs share the code path of traced ones.
func (r *recorder) call(name string, req int, fn func()) {
	if r == nil {
		fn()
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: req})
	r.open = append(r.open, id)
	r.spans[id].StartNs = int64(time.Since(r.t0))
	fn()
	r.spans[id].EndNs = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's duration minus the part of that interval
// its direct children cover. Children may overlap each other and are
// clipped to the parent, so the covered part is the length of their union.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNs < spans[ks[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := max(spans[k].StartNs, reach), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// writeSpans dumps the run's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
