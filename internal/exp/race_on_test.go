//go:build race

package exp

// raceEnabled gates the full-physics integration tests and the heavy
// TestGoldenGate entries: under the race detector they exceed reasonable
// budgets (each simulates seconds of platform time), and they exercise
// no concurrency of their own — the harness's parallelism is covered by
// the light TestGoldenGate entries, which do run under -race.
const raceEnabled = true
