package main

import "math"

// accuracyFloor is the least tweet- and user-level accuracy any seed
// may produce; below it the workload is not measuring a working system.
const accuracyFloor = 0.60

// pinnedSeed is the seed whose accuracies are pinned exactly: at a fixed
// kernel width the pipeline is deterministic, so any drift on this seed
// is a behaviour change, however small.
const pinnedSeed = 1

// pinned holds the accuracies of the default seed at full scale,
// {tweet, user} per workload.
var pinned = map[string][2]float64{
	"online_replay": {0.852650392525056, 0.8351764086361243},
	"offline_refit": {0.7792599466419209, 0.9661016949152542},
	"daemon_ingest": {0.8442361111111111, 0.7833333333333333},
	"daemon_mixed":  {0.8282291666666667, 0.8},
}

// checkQuality applies the accuracy gates to r.
func checkQuality(r *result, o options) {
	ta, ua := r.values["tweet_accuracy"], r.values["user_accuracy"]
	if r.fullSize && (ta < accuracyFloor || ua < accuracyFloor) {
		r.fail("accuracy below %.2f: tweet %.4f user %.4f", accuracyFloor, ta, ua)
	}
	want, ok := pinned[r.workload]
	if !ok || o.seed != pinnedSeed || !r.fullSize {
		return
	}
	if math.Abs(ta-want[0]) > 1e-9 || math.Abs(ua-want[1]) > 1e-9 {
		r.fail("seed %d accuracies moved: tweet %.12f (pinned %.12f) user %.12f (pinned %.12f)",
			pinnedSeed, ta, want[0], ua, want[1])
	}
}
