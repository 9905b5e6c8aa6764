//go:build !race

package coloring

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
