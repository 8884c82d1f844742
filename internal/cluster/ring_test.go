package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func topicNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("topic-%04d", i)
	}
	return out
}

// TestRingDeterministicAcrossPeerOrder pins the core placement contract:
// every shard builds the ring independently from the same peer list, so
// the owner of every topic must be identical regardless of the order the
// peers were listed in.
func TestRingDeterministicAcrossPeerOrder(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	perms := [][]string{
		{peers[0], peers[1], peers[2]},
		{peers[2], peers[0], peers[1]},
		{peers[1], peers[2], peers[0]},
	}
	rings := make([]*Ring, len(perms))
	for i, p := range perms {
		r, err := New(p, 48)
		if err != nil {
			t.Fatalf("New(%v): %v", p, err)
		}
		rings[i] = r
	}
	for _, name := range topicNames(500) {
		want := rings[0].Owner(name)
		for i := 1; i < len(rings); i++ {
			if got := rings[i].Owner(name); got != want {
				t.Fatalf("owner of %q differs across peer orders: %q vs %q", name, got, want)
			}
		}
	}
}

// TestRingRepeatable asserts that rebuilding the same ring (a restart)
// reproduces identical placement — the property cluster recovery depends
// on, since no placement table is persisted anywhere.
func TestRingRepeatable(t *testing.T) {
	peers := []string{"s0", "s1", "s2", "s3", "s4"}
	a, err := New(peers, 0) // 0 selects DefaultVirtualNodes
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualNodes() != DefaultVirtualNodes {
		t.Fatalf("vnodes %d, want default %d", a.VirtualNodes(), DefaultVirtualNodes)
	}
	b, err := New(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range topicNames(1000) {
		if a.Owner(name) != b.Owner(name) {
			t.Fatalf("ring rebuild changed owner of %q", name)
		}
	}
}

// TestRingBalance checks that virtual nodes spread load: over 3 shards and
// many topics every shard owns a non-trivial share. The bound is loose
// (hashing is statistical, not exact) but catches gross imbalance, e.g. a
// broken point sort assigning everything to one peer.
func TestRingBalance(t *testing.T) {
	peers := []string{"shard-a", "shard-b", "shard-c"}
	r, err := New(peers, 128)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	names := topicNames(3000)
	for _, name := range names {
		counts[r.Owner(name)]++
	}
	for _, p := range peers {
		share := float64(counts[p]) / float64(len(names))
		if share < 0.15 || share > 0.55 {
			t.Fatalf("peer %s owns %.1f%% of topics (counts %v)", p, 100*share, counts)
		}
	}
}

// TestRingMinimalRemapping asserts consistent hashing's defining property:
// adding a peer moves roughly 1/n of the keys — to the new peer only —
// and never reshuffles keys between surviving peers.
func TestRingMinimalRemapping(t *testing.T) {
	old, err := New([]string{"s0", "s1", "s2"}, 96)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := New([]string{"s0", "s1", "s2", "s3"}, 96)
	if err != nil {
		t.Fatal(err)
	}
	names := topicNames(4000)
	moved := 0
	for _, name := range names {
		before, after := old.Owner(name), grown.Owner(name)
		if before == after {
			continue
		}
		if after != "s3" {
			t.Fatalf("topic %q moved %s → %s, but only the new peer may gain keys", name, before, after)
		}
		moved++
	}
	share := float64(moved) / float64(len(names))
	// Expect ~25%; allow a wide statistical band.
	if share < 0.10 || share > 0.45 {
		t.Fatalf("adding a 4th peer remapped %.1f%% of topics, want ~25%%", 100*share)
	}
}

// TestRingVnodeCountMatters verifies the virtual-node knob is actually
// wired through: more virtual nodes tightens the balance (and different
// vnode counts are allowed to produce different placements).
func TestRingVnodeCountMatters(t *testing.T) {
	spread := func(vnodes int) float64 {
		r, err := New([]string{"s0", "s1", "s2"}, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		names := topicNames(6000)
		for _, n := range names {
			counts[r.Owner(n)]++
		}
		min, max := len(names), 0
		for _, p := range r.Peers() {
			if counts[p] < min {
				min = counts[p]
			}
			if counts[p] > max {
				max = counts[p]
			}
		}
		return float64(max-min) / float64(len(names))
	}
	if s1, s256 := spread(1), spread(256); s256 >= s1 {
		t.Fatalf("256 vnodes should balance better than 1: spread %0.3f vs %0.3f", s256, s1)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := New(nil, 8); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := New([]string{"a", "a"}, 8); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	if _, err := New([]string{"a", ""}, 8); err == nil {
		t.Fatal("empty peer name accepted")
	}
	r, err := New([]string{"a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains("a") || !r.Contains("b") || r.Contains("c") {
		t.Fatal("Contains is wrong")
	}
}

// TestRingOwnerUsableForSharding is a smoke test of the daemon's usage
// pattern: random topic names all resolve to a ring member.
func TestRingOwnerUsableForSharding(t *testing.T) {
	peers := []string{"http://127.0.0.1:9001", "http://127.0.0.1:9002", "http://127.0.0.1:9003"}
	r, err := New(peers, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("t%x", rng.Int63())
		if !r.Contains(r.Owner(name)) {
			t.Fatalf("owner of %q not in ring", name)
		}
	}
}
