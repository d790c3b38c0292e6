package serve

import (
	"math/rand/v2"
	"testing"
	"time"

	"impatience/internal/demand"
	"impatience/internal/utility"
)

// countingUtility counts ϕ and ϕ⁻¹ evaluations, the units of
// water-filling work: the warm fill probes ϕ at each item's clamps and
// certifies with it, and inverts ϕ once per interior item on every fill of
// the λ search; the cold fill inverts through ϕ alone.
type countingUtility struct {
	utility.Function
	calls, invCalls *int
}

func (c countingUtility) Phi(mu, x float64) float64 {
	*c.calls++
	return c.Function.Phi(mu, x)
}

func (c countingUtility) PhiInv(mu, t float64) float64 {
	*c.invCalls++
	return c.Function.PhiInv(mu, t)
}

// TestSolverEvaluationBudget pins the cost of the λ search on a fixed
// flash-crowd sequence shaped like the aged-flash benchmark: 3000 items,
// 100 servers, ρ=10, step:10, half-life 10 s, drift threshold 0.01, and a
// Pareto ranking rotated by 37 every 4 windows of 0.5 s. The cold bound
// sits under half of what bisecting ln λ to machine precision spends here
// (2.54M ϕ evaluations). A warm solve inverts ϕ in closed form, so its ϕ
// evaluations are the two clamp probes per item plus certification,
// ≈6.5k, and its ϕ⁻¹ evaluations one per interior item per fill, ≈5k.
// Both warm pins are on the mean.
func TestSolverEvaluationBudget(t *testing.T) {
	const (
		items, windows = 3000, 16
		window, drift  = 0.5, 0.01
		maxWarm        = 10_000
		maxWarmInv     = 10_000
		maxCold        = 1_200_000
	)
	var calls, invCalls int
	s, err := NewSolver(countingUtility{utility.Step{Tau: 10}, &calls, &invCalls}, 0.05, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Pareto(items, 1, 1000)
	perm := rand.New(rand.NewPCG(1, 1^0x5eed)).Perm(items)
	counts := make([]float64, items)
	var solved demand.Popularity
	var warm, cold, warmCalls, warmInvCalls int
	for k := 0; k < windows; k++ {
		shift := (k / 4) * 37
		for i, r := range base.Rates {
			counts[(perm[i]+shift)%items] = r * window
		}
		if err := est.Fold(counts, window); err != nil {
			t.Fatal(err)
		}
		cur := est.Snapshot()
		if solved.Items() != 0 && demand.DriftL1(solved, cur) < drift {
			continue
		}
		calls, invCalls = 0, 0
		start := time.Now()
		_, _, isWarm, err := s.Solve(cur)
		if err != nil {
			t.Fatalf("window %d: %v", k, err)
		}
		t.Logf("window %2d warm=%-5v ϕ evaluations %8d  ϕ⁻¹ %6d  %v", k, isWarm, calls, invCalls, time.Since(start))
		if isWarm {
			warm++
			warmCalls += calls
			warmInvCalls += invCalls
		} else {
			cold++
			if calls > maxCold {
				t.Errorf("window %d: cold solve spent %d ϕ evaluations, want ≤ %d", k, calls, maxCold)
			}
		}
		solved = cur
	}
	if cold != 1 || warm < windows/2 {
		t.Fatalf("%d cold and %d warm solves over %d windows, want 1 cold and ≥ %d warm", cold, warm, windows, windows/2)
	}
	if mean := warmCalls / warm; mean > maxWarm {
		t.Errorf("warm solves spent %d ϕ evaluations on average, want ≤ %d", mean, maxWarm)
	}
	if mean := warmInvCalls / warm; mean > maxWarmInv {
		t.Errorf("warm solves spent %d ϕ⁻¹ evaluations on average, want ≤ %d", mean, maxWarmInv)
	}
}
