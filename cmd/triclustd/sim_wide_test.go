//go:build simwide

package main

import "testing"

// TestClusterSimWide is the wide run: seeds 1–1,000 once each, built only
// with -tags simwide (about 25 s on two cores with TMPDIR=/dev/shm):
//
//	go test -tags simwide -run '^TestClusterSimWide$' ./cmd/triclustd/
//
// A failing seed N replays alone with -run 'TestClusterSimWide/^seed=N$'.
// Seeds above 16 exist only in this build; the ordinary build's
// -run 'TestClusterSim/^seed=N$' reaches seeds 1–16. scripts/simwide-gate.sh
// runs this test and fails unless exactly its listed seeds fail; given a
// path, it writes each passing seed's outcome digest there.
func TestClusterSimWide(t *testing.T) { runSims(t, 1, 1000) }
