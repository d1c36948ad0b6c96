//go:build !race

package nova

// raceEnabled: see race_test.go.
const raceEnabled = false
