//go:build !race

package face

// raceEnabled: see race_test.go.
const raceEnabled = false
