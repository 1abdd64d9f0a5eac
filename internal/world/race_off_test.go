//go:build !race

package world_test

const raceEnabled = false
