package rates

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"impatience/internal/trace"
)

// contactDigest is an FNV-1a hash of a full contact sequence — the
// bit-exactness instrument of the sharding suite (times hashed at full
// float64 precision).
func contactDigest(src trace.Source) (uint64, int) {
	h := fnv.New64a()
	var buf [8]byte
	n := 0
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.T))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(c.A)<<32|uint64(c.B))
		h.Write(buf[:])
		n++
	}
	return h.Sum64(), n
}

// shardedModels returns one model per structured kind, sized so the
// digest runs stay fast.
func shardedModels(t *testing.T) map[string]*Model {
	t.Helper()
	community, err := NewCommunity(CommunityConfig{Nodes: 80, Communities: 5, In: 0.4, Out: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHubSpoke(HubSpokeConfig{Nodes: 80, Hubs: 8, HubHub: 0.3, HubSpoke: 0.1, SpokeSpoke: 0.003})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistanceKernel(DistanceConfig{
		Nodes: 80, CellsX: 4, CellsY: 4, Width: 4000, Height: 4000, Mu0: 0.25, Lambda: 900, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Model{"community": community, "hubspoke": hub, "distance": dist}
}

// TestShardedGoldenDigests pins the structured-rate contact streams
// bit-for-bit: any change to the samplers' RNG consumption, merge order,
// group assignment, or alias construction shows up here before it can
// silently invalidate cross-version comparisons. Regenerate by running
// with -run TestShardedGoldenDigests -v and copying the logged values —
// and bump the experiment-layer goldens alongside.
func TestShardedGoldenDigests(t *testing.T) {
	golden := map[string]struct {
		digest uint64
		n      int
	}{
		"community": {0xbca2e455c405797c, 79255},
		"hubspoke":  {0x923e32ae202bde6c, 18363},
		"distance":  {0xfc1bf7b566ad221e, 37320},
	}
	for name, m := range shardedModels(t) {
		src, err := NewSharded(m, 250, 1234, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, n := contactDigest(src)
		t.Logf("%s: digest 0x%016x n %d", name, d, n)
		if g := golden[name]; g.digest != d || g.n != n {
			t.Errorf("%s: digest 0x%016x (n=%d), golden 0x%016x (n=%d)", name, d, n, g.digest, g.n)
		}
	}
}

// TestGroupCountChangesStream documents that the group count is part of
// the stream's identity: different group
// counts give different (equally valid) sequences, which is why
// DefaultGroups must stay fixed across comparison runs.
func TestGroupCountChangesStream(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 40, Communities: 4, In: 0.5, Out: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSharded(m, 200, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(m, 200, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := contactDigest(a)
	db, _ := contactDigest(b)
	if da == db {
		t.Error("streams with different group counts collide — group count not feeding the sub-seeds?")
	}
}
