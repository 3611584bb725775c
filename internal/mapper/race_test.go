//go:build race

package mapper

// raceEnabled reports whether the race detector is on. sync.Pool drops
// pooled items at random under it, so allocation bounds do not hold.
const raceEnabled = true
