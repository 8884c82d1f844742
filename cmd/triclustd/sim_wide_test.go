//go:build simwide

package main

import "testing"

// TestClusterSimWide is the wide run: seeds 1–1,000 once each, built only
// with -tags simwide (about a minute on two cores):
//
//	go test -tags simwide -run TestClusterSimWide ./cmd/triclustd/
//
// A failing seed N replays alone with -run 'TestClusterSim/seed=N' in the
// ordinary build, or with -run 'TestClusterSimWide/seed=N' in this one.
func TestClusterSimWide(t *testing.T) { runSims(t, 1, 1000) }
