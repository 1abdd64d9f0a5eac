//go:build race

package boundary

// raceEnabled reports that the race detector is on. sync.Pool then drops
// a quarter of all Puts at random, so tests that count on a recycled
// buffer coming back skip themselves.
const raceEnabled = true
