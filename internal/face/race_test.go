//go:build race

package face

// raceEnabled reports that the race detector is instrumenting this build.
// The allocation gate skips under it: the detector itself allocates per
// tracked access, so testing.AllocsPerRun would measure the
// instrumentation. The gate runs in the plain build.
const raceEnabled = true
