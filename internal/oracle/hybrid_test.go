package oracle

import (
	"slices"
	"strings"
	"testing"
)

// TestHybridLadderPasses runs the hybrid-vs-sim check in isolation on
// the quick ladder: the mean-field fast path must land inside the full
// simulation's confidence-interval gate at every rung, on the fluid path
// (a fallback anywhere is an infrastructure failure inside the check).
func TestHybridLadderPasses(t *testing.T) {
	s := &session{cfg: Config{Seed: 1, Workers: 1, Hybrid: true}, p: quickParams()}
	res := s.checkHybridLadder()
	if !res.Pass {
		t.Fatalf("hybrid ladder failed (effect %.3f):\n%v", res.Effect, res.Details)
	}
	if len(res.Details) != len(quickParams().ladderN) {
		t.Errorf("%d rung lines for %d rungs", len(res.Details), len(quickParams().ladderN))
	}
	if res.Effect <= 0 || res.Effect > 1 {
		t.Errorf("effect %g outside (0, 1] on a passing run", res.Effect)
	}
}

// TestHybridCommunityPasses runs the hybrid community check in
// isolation on the quick rung: the fluid path must hold UNI inside the
// full simulation's 95 % CI and QCR within the slack, without falling
// back, and quick mode must not run the speedup rung.
func TestHybridCommunityPasses(t *testing.T) {
	s := &session{cfg: Config{Seed: 1, Workers: 1, Hybrid: true}, p: quickParams()}
	res := s.checkHybridCommunity()
	if !res.Pass {
		t.Fatalf("hybrid community check failed (effect %.3f):\n%v", res.Effect, res.Details)
	}
	if want := len(quickParams().hybridRungs) * len(hybridSchemes); len(res.Details) != want {
		t.Errorf("%d detail lines, want one per rung and scheme (%d):\n%v", len(res.Details), want, res.Details)
	}
	if res.Effect <= 0 || res.Effect > 1 {
		t.Errorf("effect %g outside (0, 1] on a passing run", res.Effect)
	}
}

// TestHybridCheckGated: the suite appends both hybrid checks exactly
// when Config.Hybrid asks for them.
func TestHybridCheckGated(t *testing.T) {
	hybrid := func(cfg Config) []string {
		s := &session{cfg: cfg, p: quickParams()}
		var names []string
		for _, c := range s.checks() {
			if strings.HasPrefix(c.name, "hybrid-") {
				names = append(names, c.name)
			}
		}
		return names
	}
	if got := hybrid(Config{}); len(got) != 0 {
		t.Errorf("hybrid checks %v present without opt-in", got)
	}
	want := []string{"hybrid-vs-sim-ladder", "hybrid-community"}
	if got := hybrid(Config{Hybrid: true}); !slices.Equal(got, want) {
		t.Errorf("hybrid checks %v with Hybrid set, want %v", got, want)
	}
}
