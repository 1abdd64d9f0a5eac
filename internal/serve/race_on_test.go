//go:build race

package serve

// raceEnabled reports that the race detector is on. sync.Pool then drops
// a quarter of all Puts at random, so pooled records and buffers are
// allocated afresh now and then.
const raceEnabled = true
