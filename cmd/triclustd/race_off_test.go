//go:build !race

package main

// raceLeg reports whether the race detector instruments this build. The
// race leg runs the harness's ticks and the simulator's concurrent event
// truly at once, so that the detector sees the loops and requests overlap;
// every other build runs them one at a time, so a seed has one outcome.
const raceLeg = false
