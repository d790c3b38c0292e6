package sim

import (
	"testing"

	"impatience/internal/adaptive"
	"impatience/internal/core"
)

// TestWrappedPolicyKeepsFaultModel: an adaptive.Policy without feedback
// never re-tunes its inner QCR, so around a fresh copy of the same QCR it
// must reproduce the bare QCR's run exactly, faults and adversaries
// included. The simulator reaches faults and adversaries through the
// cache it hands the policy, and crash handling and tallies through
// core.Policy methods every wrapper must forward, so no layer can be lost
// in the wrapping.
func TestWrappedPolicyKeepsFaultModel(t *testing.T) {
	hardened := func(seed uint64) Config {
		cfg := adversarialConfig(t, seed)
		cfg.Policy.(*core.QCR).Hardening = &core.Hardening{CounterCap: 60, SmoothAlpha: 0.25, ReplicaClamp: 15}
		return cfg
	}
	cases := []struct {
		name string
		mk   func() Config
	}{
		{"faults", func() Config { return faultyConfig(t, 5) }},
		{"adversary", func() Config { return adversarialConfig(t, 3) }},
		{"adversary-hardened", func() Config { return hardened(3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare, err := Run(tc.mk())
			if err != nil {
				t.Fatalf("Run (bare): %v", err)
			}
			cfg := tc.mk()
			inner := cfg.Policy.(*core.QCR)
			cfg.Policy = &adaptive.Policy{Mu: 0.05, Servers: 20, Inner: inner}
			wrapped, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run (wrapped): %v", err)
			}
			if wrapped.Digest() != bare.Digest() {
				t.Errorf("wrapped digest %#x != bare %#x", wrapped.Digest(), bare.Digest())
			}
			if (wrapped.Faults == nil) != (bare.Faults == nil) ||
				wrapped.Faults != nil && *wrapped.Faults != *bare.Faults {
				t.Errorf("fault tallies diverge: wrapped %+v, bare %+v", wrapped.Faults, bare.Faults)
			}
			if (wrapped.Adversary == nil) != (bare.Adversary == nil) ||
				wrapped.Adversary != nil && *wrapped.Adversary != *bare.Adversary {
				t.Errorf("adversary tallies diverge: wrapped %+v, bare %+v", wrapped.Adversary, bare.Adversary)
			}
			if wrapped.Overhead.MandateTransfers != bare.Overhead.MandateTransfers {
				t.Errorf("mandate transfers: wrapped %d, bare %d",
					wrapped.Overhead.MandateTransfers, bare.Overhead.MandateTransfers)
			}

			n := inner.Counters()
			switch tc.name {
			case "faults":
				ft := wrapped.Faults
				if ft.MandatesCrashed == 0 || ft.MandatesDropped == 0 {
					t.Fatalf("the wrapped run lost no mandate to a crash or a drop: %+v", ft)
				}
				// Every minted mandate is accounted for once, including the
				// ones the simulator tallied through the wrapper's OnCrash.
				accounted := n.Pending + n.Executed + n.Expired + n.Abandoned + n.Dropped + ft.MandatesCrashed
				if accounted != n.Created {
					t.Errorf("mandate conservation violated: accounted %d, created %d", accounted, n.Created)
				}
			case "adversary-hardened":
				if wrapped.Adversary.CountersCapped == 0 && wrapped.Adversary.ReactionsClamped == 0 {
					t.Errorf("the hardened reaction never intervened: %+v", wrapped.Adversary)
				}
			}
		})
	}
}
