// Package cluster decides where a topic lives in a sharded triclustd. A
// consistent-hash ring assigns every topic name an owning shard: every shard
// builds it from the same static peer list and virtual-node count and hashes
// with the same 64-bit FNV-1a function, so all compute the same owner with no
// coordination traffic. A Table is one shard's placement: itself, the ring,
// and the tombstones of the topics it handed off, which override the ring;
// it answers every route and every epoch fence — a restore, a shipped
// replica frame. Handoff is the one protocol that moves a topic to another
// shard, over a Transport: fence, install, settle an unknown outcome by
// asking the target. The package does no I/O of its own and starts no
// goroutine; the daemon carries its requests and its loops.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-peer virtual-node count used when the
// operator does not configure one. 64 points per peer keeps the expected
// per-shard load within a few percent of uniform for small clusters
// while the ring stays tiny (a few KB).
const DefaultVirtualNodes = 64

// point is one virtual node: a position on the hash circle owned by a
// peer.
type point struct {
	hash uint64
	peer string
}

// Ring is an immutable consistent-hash ring over a static peer list.
// Construct it once at startup; Owner is safe for concurrent use.
type Ring struct {
	points []point
	peers  []string // sorted, deduplicated
	vnodes int
}

// New builds a ring over peers with vnodes virtual nodes per peer.
// Peers are opaque shard identities (triclustd uses base URLs); the list
// must be non-empty and duplicate-free. vnodes <= 0 selects
// DefaultVirtualNodes. Two rings built from the same (peers, vnodes) —
// in any peer order — place every key identically.
func New(peers []string, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i, p := range sorted {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer name")
		}
		if i > 0 && sorted[i-1] == p {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
	}
	r := &Ring{
		points: make([]point, 0, len(sorted)*vnodes),
		peers:  sorted,
		vnodes: vnodes,
	}
	for _, p := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: hashKey(p + "#" + strconv.Itoa(i)), peer: p})
		}
	}
	// Sort by position; ties (astronomically rare with a 64-bit hash, but
	// placement must be deterministic even then) break by peer name, so
	// peer-list order never matters.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// hashKey is the ring's hash function: 64-bit FNV-1a followed by a
// murmur3-style avalanche finalizer. Plain FNV leaves too much structure
// on short, similar keys ("peer#0", "peer#1", …), which skews the ring
// badly even at 128 virtual nodes; the finalizer spreads the points
// uniformly. The function is part of the placement contract — every shard
// must use the same one — so it is fixed here rather than configurable.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmix64(h.Sum64())
}

// fmix64 is the 64-bit murmur3 finalizer: a bijective avalanche mix.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the peer owning key: the first virtual node clockwise
// from the key's hash position.
func (r *Ring) Owner(key string) string {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].peer
}

// ReplicaSet returns the first n distinct peers clockwise from key's hash
// position: the owner first, then its ring successors. This is the
// replication placement contract — with replication factor n, the topic's
// primary is element 0 and its followers are elements 1..n-1, and every
// shard computes the same set with no coordination. n is capped at the
// peer count (a 3-shard ring cannot hold 4 copies).
func (r *Ring) ReplicaSet(key string, n int) []string {
	if n > len(r.peers) {
		n = len(r.peers)
	}
	if n <= 0 {
		return nil
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Peers returns the ring's peer list in sorted order. The slice is shared;
// callers must not mutate it.
func (r *Ring) Peers() []string { return r.peers }

// Contains reports whether peer is a member of the ring.
func (r *Ring) Contains(peer string) bool {
	i := sort.SearchStrings(r.peers, peer)
	return i < len(r.peers) && r.peers[i] == peer
}

// VirtualNodes returns the per-peer virtual-node count the ring was built
// with.
func (r *Ring) VirtualNodes() int { return r.vnodes }
