//go:build race

package cover

// raceEnabled reports that the race detector is instrumenting this build.
// The allocation gate skips under it: the detector allocates per tracked
// access and drops pooled items at random, so testing.AllocsPerRun
// measures the instrumentation, not the arena. The gate runs in the plain
// build (verify.sh runs both).
const raceEnabled = true
