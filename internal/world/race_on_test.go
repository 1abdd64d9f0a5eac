//go:build race

package world_test

// raceEnabled reports that the race detector is on. sync.Pool then drops
// a quarter of all Puts at random, so pooled activation records are
// allocated afresh now and then.
const raceEnabled = true
