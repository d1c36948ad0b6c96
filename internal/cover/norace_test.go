//go:build !race

package cover

// raceEnabled: see race_test.go.
const raceEnabled = false
