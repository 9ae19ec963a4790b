//go:build !race

package tahoe

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
