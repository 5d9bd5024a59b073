//go:build race

package jsonbuf

// raceEnabled skips the allocation count: under the race detector
// sync.Pool drops a share of what is put back, so the pooled encoders
// are rebuilt at random.
const raceEnabled = true
