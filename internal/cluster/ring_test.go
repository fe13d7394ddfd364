package cluster

import "testing"

func TestRingPlaceDeterministicAndInRange(t *testing.T) {
	r1 := NewRing(5, 0)
	r2 := NewRing(5, 0)
	for src := 0; src < 1000; src++ {
		g := r1.Place(src)
		if g < 0 || g >= 5 {
			t.Fatalf("Place(%d) = %d out of range", src, g)
		}
		if g2 := r2.Place(src); g2 != g {
			t.Fatalf("Place(%d) differs across identical rings: %d vs %d", src, g, g2)
		}
		if g3 := r1.PlaceFunc()(src); g3 != g {
			t.Fatalf("PlaceFunc()(%d) = %d, Place = %d", src, g3, g)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	const shards, sources = 4, 2000
	r := NewRing(shards, 0)
	counts := make([]int, shards)
	for src := 0; src < sources; src++ {
		counts[r.Place(src)]++
	}
	for g, n := range counts {
		// Consistent hashing with 64 vnodes is not perfectly uniform, but
		// every shard must carry a real share of the keyspace.
		if n < sources/shards/4 {
			t.Errorf("shard %d holds %d/%d sources — ring badly skewed: %v", g, n, sources, counts)
		}
	}
}

func TestRingStability(t *testing.T) {
	// Growing the ring from 4 to 5 shards must not reshuffle everything:
	// consistent hashing moves roughly 1/5 of the keys, round-robin would
	// move ~4/5.
	small, big := NewRing(4, 0), NewRing(5, 0)
	moved := 0
	const sources = 2000
	for src := 0; src < sources; src++ {
		if small.Place(src) != big.Place(src) {
			moved++
		}
	}
	if moved > sources/2 {
		t.Errorf("%d/%d sources moved when adding one shard; want consistent-hash stability", moved, sources)
	}
}

func TestTopologyReplicasAndServerShards(t *testing.T) {
	topo := Topology{Servers: []string{"a", "b", "c"}, NumShards: 3, Replication: 2}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	// Shard g lives on servers (g+r) mod S.
	hosts := make(map[int]int) // shard -> replica count seen via ServerShards
	for i := range topo.Servers {
		for _, g := range topo.ServerShards(i) {
			hosts[g]++
		}
	}
	for g := 0; g < topo.NumShards; g++ {
		if hosts[g] != topo.Replication {
			t.Errorf("shard %d hosted by %d servers, want %d", g, hosts[g], topo.Replication)
		}
		reps := topo.Replicas(g)
		if len(reps) != 2 || reps[0] != g%3 || reps[1] != (g+1)%3 {
			t.Errorf("Replicas(%d) = %v", g, reps)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{}).Validate(); err == nil {
		t.Error("empty topology validated")
	}
	if err := (Topology{Servers: []string{"a"}, NumShards: 1, Replication: 2}).Validate(); err == nil {
		t.Error("replication > servers validated")
	}
}

func TestWireStatsRoundTrip(t *testing.T) {
	st := WireStats{
		TraversalNs: 2, RefinementNs: 3, MarkovNs: 4, MonteCarloNs: 5, TotalNs: 6,
		IOCost: 7, IOHits: 8, NodePairsVisited: 9, NodePairsPruned: 10,
		PointPairsChecked: 11, PointPairsPruned: 12, CandidateGenes: 13,
		CandidateMatrices: 14, MatricesPrunedL5: 15, Answers: 16,
		CacheHits: 17, CacheMisses: 18, Draws: 19,
	}
	if got := StatsToWire(st.Stats()); got != st {
		t.Errorf("stats round trip: got %+v want %+v", got, st)
	}
}
