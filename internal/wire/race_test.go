//go:build race

package wire

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a random quarter of Put items, so pooled-allocation guards do
// not hold there; they run in the plain build.
const raceEnabled = true
