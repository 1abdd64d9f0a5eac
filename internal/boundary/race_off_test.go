//go:build !race

package boundary

const raceEnabled = false
