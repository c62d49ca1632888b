//go:build race

package core_test

// raceEnabled reports a -race build, whose slowdown makes some tests
// trim their largest pools as -short does.
const raceEnabled = true
