//go:build race

package coloring

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random and allocation counts stop being reproducible.
const raceEnabled = true
