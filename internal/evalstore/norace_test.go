//go:build !race

package evalstore

// raceEnabled: see race_test.go.
const raceEnabled = false
