package serve

import (
	"math/rand/v2"
	"testing"
	"time"

	"impatience/internal/demand"
	"impatience/internal/utility"
)

// countingUtility counts ϕ evaluations, the unit of water-filling work:
// every fill of the λ search inverts ϕ once per interior item.
type countingUtility struct {
	utility.Function
	calls *int
}

func (c countingUtility) Phi(mu, x float64) float64 {
	*c.calls++
	return c.Function.Phi(mu, x)
}

// TestSolverEvaluationBudget pins the cost of the λ search on a fixed
// flash-crowd sequence shaped like the aged-flash benchmark: 3000 items,
// 100 servers, ρ=10, step:10, half-life 10 s, drift threshold 0.01, and a
// Pareto ranking rotated by 37 every 4 windows of 0.5 s. The bounds sit
// under half of what bisecting ln λ to machine precision spends here
// (≈140k ϕ evaluations per warm solve on average, 2.54M cold). The warm
// pin is on the mean: the first warm solve after the cold one starts its
// per-item inversions from cold guesses and costs about twice the rest.
func TestSolverEvaluationBudget(t *testing.T) {
	const (
		items, windows = 3000, 16
		window, drift  = 0.5, 0.01
		maxWarm        = 60_000
		maxCold        = 1_200_000
	)
	var calls int
	s, err := NewSolver(countingUtility{utility.Step{Tau: 10}, &calls}, 0.05, 100, 10)
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
	var warm, cold, warmCalls int
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
		calls = 0
		start := time.Now()
		_, _, isWarm, err := s.Solve(cur)
		if err != nil {
			t.Fatalf("window %d: %v", k, err)
		}
		t.Logf("window %2d warm=%-5v ϕ evaluations %8d  %v", k, isWarm, calls, time.Since(start))
		if isWarm {
			warm++
			warmCalls += calls
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
}
