package core

import (
	"math"
	"testing"
)

// Tests for the adversary-hardened reaction (Hardening) and the
// free-rider-aware mandate routing.

func TestHardeningValidate(t *testing.T) {
	cases := []struct {
		name string
		h    *Hardening
		ok   bool
	}{
		{"nil", nil, true},
		{"zero", &Hardening{}, true},
		{"full", &Hardening{CounterCap: 30, SmoothAlpha: 0.25, ReplicaClamp: 12}, true},
		{"alpha-one", &Hardening{SmoothAlpha: 1}, true},
		{"negative-cap", &Hardening{CounterCap: -1}, false},
		{"negative-alpha", &Hardening{SmoothAlpha: -0.1}, false},
		{"alpha-above-one", &Hardening{SmoothAlpha: 1.5}, false},
		{"nan-alpha", &Hardening{SmoothAlpha: math.NaN()}, false},
		{"negative-clamp", &Hardening{ReplicaClamp: -3}, false},
	}
	for _, tc := range cases {
		err := tc.h.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected, got nil", tc.name)
		}
	}
}

// TestCounterCapSaturatesForgedReports: a ×1000 forged counter fed
// through a capped linear reaction mints at most CounterCap mandates,
// and the intervention is tallied.
func TestCounterCapSaturatesForgedReports(t *testing.T) {
	c := newFakeCache(10, 3)
	q := &QCR{
		Reaction:       PathReplication(1),
		MandateRouting: true,
		Seed:           3,
		Hardening:      &Hardening{CounterCap: 5},
	}
	q.Init(c)
	q.OnFulfill(c, 0, 1, 0, 5000, 1, 1)
	if got := q.Counters().Created; got != 5 {
		t.Fatalf("created %d mandates from a capped counter, want 5", got)
	}
	capped := q.Counters().Capped
	if capped != 1 {
		t.Fatalf("capped tally %d, want 1", capped)
	}
	// An honest report below the cap passes through untouched.
	q.OnFulfill(c, 0, 1, 1, 3, 1, 2)
	if got := q.Counters().Created; got != 8 {
		t.Fatalf("created %d mandates total, want 8", got)
	}
	if capped = q.Counters().Capped; capped != 1 {
		t.Fatalf("honest report was capped (tally %d)", capped)
	}
}

// TestEWMARateLimitsReactionInput: the reaction input is min(y, ŷ) — an
// upward excursion earns only an α-fraction of its rise above the running
// mean, a report at or below the mean passes through untouched, and each
// item keeps its own history.
func TestEWMARateLimitsReactionInput(t *testing.T) {
	c := newFakeCache(10, 3)
	q := &QCR{
		Reaction:       PathReplication(1),
		MandateRouting: true,
		Seed:           3,
		Hardening:      &Hardening{SmoothAlpha: 0.5},
	}
	q.Init(c)
	q.OnFulfill(c, 0, 1, 0, 4, 1, 1) // first report seeds the EWMA: ŷ = 4
	if got := q.Counters().Created; got != 4 {
		t.Fatalf("first report minted %d, want 4", got)
	}
	q.OnFulfill(c, 0, 1, 0, 100, 1, 2) // ŷ = 0.5·100 + 0.5·4 = 52; input min(100,52)
	if got := q.Counters().Created; got != 4+52 {
		t.Fatalf("second report minted %d total, want 56", got)
	}
	q.OnFulfill(c, 0, 1, 0, 2, 1, 3) // below ŷ: passes through untouched
	if got := q.Counters().Created; got != 56+2 {
		t.Fatalf("below-mean report minted %d total, want 58", got)
	}
	q.OnFulfill(c, 0, 1, 1, 10, 1, 4) // fresh item, fresh history
	if got := q.Counters().Created; got != 58+10 {
		t.Fatalf("fresh item minted %d total, want 68", got)
	}
}

// TestReplicaClampBoundsSupply: minting stops at the per-item supply
// bound (replicas present plus mandates pending), and withheld mandates
// are tallied.
func TestReplicaClampBoundsSupply(t *testing.T) {
	c := newFakeCache(10, 3)
	c.has[[2]int{4, 0}] = true // two replicas of item 0 already exist
	c.has[[2]int{5, 0}] = true
	q := &QCR{
		Reaction:       PathReplication(1),
		MandateRouting: true,
		Seed:           3,
		Hardening:      &Hardening{ReplicaClamp: 3},
	}
	q.Init(c)
	q.OnFulfill(c, 0, 1, 0, 10, 1, 1) // room = 3 - 2 - 0 = 1
	if got := q.Counters().Created; got != 1 {
		t.Fatalf("minted %d mandates with 1 slot of headroom, want 1", got)
	}
	if clamped := q.Counters().Clamped; clamped != 9 {
		t.Fatalf("clamped tally %d, want 9", clamped)
	}
	// The pending mandate now fills the last slot: further minting is
	// fully suppressed.
	q.OnFulfill(c, 0, 1, 0, 10, 1, 2)
	if got := q.Counters().Created; got != 1 {
		t.Fatalf("minted %d mandates at the clamp, want still 1", got)
	}
	if clamped := q.Counters().Clamped; clamped != 19 {
		t.Fatalf("clamped tally %d, want 19", clamped)
	}
}

// TestHardenedReactionOverflowRegression: the most extreme forged counter
// representable — MaxQueryCount, where the simulator's saturating
// increment and the adversary's Inflate both stop — flows through the
// hardened reaction without overflow and mints within the supply clamp.
func TestHardenedReactionOverflowRegression(t *testing.T) {
	c := newFakeCache(10, 3)
	q := &QCR{
		Reaction:       PathReplication(1),
		MandateRouting: true,
		MaxMandates:    5,
		Seed:           3,
		Hardening:      &Hardening{CounterCap: 30, SmoothAlpha: 0.25, ReplicaClamp: 8},
	}
	q.Init(c)
	for i := 0; i < 50; i++ {
		q.OnFulfill(c, 0, 1, 0, MaxQueryCount, 1, float64(i))
	}
	if got := q.Counters().Created; got < 0 || got > 8 {
		t.Fatalf("minted %d mandates from saturated counters, want within clamp 8", got)
	}
	if capped := q.Counters().Capped; capped != 50 {
		t.Fatalf("capped tally %d, want 50", capped)
	}
	// The unhardened reaction also survives the saturated counter: the
	// per-fulfillment cap bounds the burst and nothing overflows.
	q0 := &QCR{Reaction: PathReplication(1), MandateRouting: true, MaxMandates: 5, Seed: 3}
	q0.Init(c)
	q0.OnFulfill(c, 0, 1, 0, MaxQueryCount, 1, 1)
	if got := q0.Counters().Created; got != 5 {
		t.Fatalf("vanilla minted %d from a saturated counter, want MaxMandates 5", got)
	}
}

// TestHardeningZeroKnobsMatchesVanilla: a non-nil Hardening with every
// knob off mints exactly what the vanilla path mints.
func TestHardeningZeroKnobsMatchesVanilla(t *testing.T) {
	mint := func(h *Hardening) int {
		c := newFakeCache(10, 3)
		q := &QCR{Reaction: PathReplication(1), MandateRouting: true, Seed: 9, Hardening: h}
		q.Init(c)
		for i := 1; i <= 20; i++ {
			q.OnFulfill(c, 0, 1, i%3, i, 1, float64(i))
		}
		return q.Counters().Created
	}
	if a, b := mint(nil), mint(&Hardening{}); a != b {
		t.Fatalf("zero-knob hardening minted %d, vanilla %d", b, a)
	}
}

// TestRoutingAvoidsFreeRiders: mandates never cross onto a node that
// refuses to carry them, even when routing would send them there.
func TestRoutingAvoidsFreeRiders(t *testing.T) {
	c := newFakeCache(4, 2)
	c.has[[2]int{1, 0}] = true // node 1 is the sole holder of item 0
	q := &QCR{
		Reaction:       PathReplication(1),
		MandateRouting: true,
		StrictSource:   true,
		Seed:           5,
	}
	q.Init(c)
	c.freeRiders = map[int]bool{1: true}
	q.addMandates(0, 0, 3, 0)
	q.OnMeeting(c, 0, 1, 1)
	// Routing wants all three at the holder, but the holder free-rides:
	// everything stays at node 0.
	if got := q.count(0, 0); got != 3 {
		t.Fatalf("node 0 keeps %d mandates, want 3", got)
	}
	if got := q.count(1, 0); got != 0 {
		t.Fatalf("free-rider carries %d mandates, want 0", got)
	}

	// A free-riding origin hands everything to an honest peer.
	q2 := &QCR{Reaction: PathReplication(1), MandateRouting: true, Seed: 5}
	q2.Init(c)
	c.freeRiders = map[int]bool{0: true}
	q2.addMandates(0, 1, 3, 0)
	q2.OnMeeting(c, 0, 2, 1)
	if got := q2.count(2, 1); got != 3 {
		t.Fatalf("honest peer carries %d mandates, want 3", got)
	}

	// Two free-riders meeting leave the piles untouched.
	q3 := &QCR{Reaction: PathReplication(1), MandateRouting: true, Seed: 5}
	q3.Init(c)
	c.freeRiders = map[int]bool{0: true, 2: true}
	q3.addMandates(0, 1, 2, 0)
	q3.OnMeeting(c, 0, 2, 1)
	if got := q3.count(0, 1); got != 2 {
		t.Fatalf("free-rider meeting moved mandates: node 0 has %d, want 2", got)
	}
}
