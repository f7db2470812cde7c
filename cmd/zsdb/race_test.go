//go:build race

package main

// raceEnabled reports whether the race detector is instrumenting this
// build. Alloc-pinning assertions skip under -race: the detector makes
// sync.Pool drop items deliberately, so pooled paths allocate there by
// design.
const raceEnabled = true
