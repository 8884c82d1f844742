package cluster

// Tombstone records that a topic was handed off to another shard at a
// given ownership epoch. The shard that gave the topic up persists one
// (through internal/store) next to where the topic's snapshot used to
// live, so that — across restarts — it refuses writes for the topic and
// redirects clients to the recorded target, not re-creating forked state.
//
// Epoch invariants:
//
//   - A topic is created at epoch 0. Every completed hand-off increments
//     the epoch by exactly one, and the new epoch travels inside the
//     exported snapshot (the codec's epoch section).
//   - A shard holding a tombstone at epoch E accepts a restore of that
//     topic only from a snapshot with epoch > E: the topic may legally
//     come back (another hand-off), but a stale pre-move snapshot — equal
//     or lower epoch — is rejected, because accepting it would fork the
//     topic's history.
//   - A tombstone written before the hand-off's PUT is the fencing point:
//     from that moment the source refuses the topic's writes even if it
//     crashes mid-move, so no interleaving of crash and retry yields two
//     shards accepting writes for one topic.
type Tombstone struct {
	// Epoch is the ownership epoch the topic moved away at (the epoch
	// embedded in the snapshot installed on the target).
	Epoch uint64 `json:"epoch"`
	// Target is the peer the topic was handed to.
	Target string `json:"target"`
}
