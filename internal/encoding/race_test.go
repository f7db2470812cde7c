//go:build race

package encoding

// raceEnabled reports whether the race detector is instrumenting this
// build. The allocation ceiling is looser under -race: the detector
// makes sync.Pool drop items deliberately, so the pooled encode scratch
// is allocated again there by design.
const raceEnabled = true
