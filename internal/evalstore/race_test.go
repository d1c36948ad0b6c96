//go:build race

package evalstore

// raceEnabled reports that the race detector is instrumenting this build.
// The allocation-count gate skips under it: the detector itself allocates
// per tracked access, so testing.AllocsPerRun would measure the
// instrumentation. The plain build runs the gate (verify.sh and CI run
// both).
const raceEnabled = true
