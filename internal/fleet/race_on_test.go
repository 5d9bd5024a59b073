//go:build race

package fleet_test

// raceEnabled skips allocation counts that go through sync.Pool, which
// drops a share of what is put back under the race detector.
const raceEnabled = true
