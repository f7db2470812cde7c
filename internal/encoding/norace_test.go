//go:build !race

package encoding

// raceEnabled reports whether the race detector is instrumenting this
// build; see race_test.go.
const raceEnabled = false
