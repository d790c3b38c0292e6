package serve

import (
	"fmt"
	"math"

	"impatience/internal/alloc"
	"impatience/internal/demand"
	"impatience/internal/numeric"
	"impatience/internal/utility"
)

// SolveStats counts how the solver reached each allocation: warm solves
// that were certified, cold from-scratch solves, and warm attempts that
// failed certification and fell back to cold.
type SolveStats struct {
	Warm     uint64 `json:"warm"`
	Cold     uint64 `json:"cold"`
	Fallback uint64 `json:"fallback"`
}

// Solver wraps the water-filling stack for serving: each Solve re-solves
// the relaxed welfare optimum (Property 1 balance d_i·ϕ(x_i) = λ) for the
// current demand estimate, warm-starting from the previous allocation and
// dual level when one exists. A warm result is certified — budget, box,
// and balance re-checked — before it is trusted; anything suspect falls
// back to the cold numeric.WaterFill. Not goroutine-safe; Server
// serializes access.
type Solver struct {
	f       utility.Function
	mu      float64
	servers int
	budget  float64
	warm    *numeric.WarmState
	stats   SolveStats
}

// NewSolver builds a solver for a homogeneous system: per-item caps |S|,
// budget ρ·|S|, derivative ϕ(µ, ·) of the given delay-utility.
func NewSolver(f utility.Function, mu float64, servers, rho int) (*Solver, error) {
	switch {
	case f == nil:
		return nil, fmt.Errorf("serve: nil utility")
	case !(mu > 0):
		return nil, fmt.Errorf("serve: contact rate µ=%g, want > 0", mu)
	case servers <= 0 || rho <= 0:
		return nil, fmt.Errorf("serve: servers=%d rho=%d, want > 0", servers, rho)
	}
	return &Solver{
		f:       f,
		mu:      mu,
		servers: servers,
		budget:  float64(alloc.Capacity(servers, rho)),
	}, nil
}

// Stats returns the solve counters.
func (s *Solver) Stats() SolveStats { return s.stats }

func (s *Solver) problem(pop demand.Popularity) numeric.WaterFillProblem {
	caps := make([]float64, pop.Items())
	var effCap float64
	for i := range caps {
		caps[i] = float64(s.servers)
		if pop.Rates[i] > 0 {
			effCap += caps[i]
		}
	}
	// When demand is so sparse that every demanded item fits fully
	// replicated (early in a daemon's life, or a catalog mostly cold), the
	// reachable capacity is below ρ·|S|: cap the budget there — demanded
	// items saturate at |S| replicas and the rest of the capacity idles,
	// exactly what GreedyOptimal's spill does minus the inert zero-demand
	// placements.
	budget := s.budget
	if budget > effCap {
		budget = effCap
	}
	return numeric.WaterFillProblem{
		Weights: pop.Rates,
		Caps:    caps,
		Budget:  budget,
		Deriv:   func(x float64) float64 { return s.f.Phi(s.mu, x) },
		Inverse: func(t float64) float64 { return s.f.PhiInv(s.mu, t) },
	}
}

// certTol bounds the re-checked Property-1 balance and box violations a
// warm solve may carry before the solver discards it for a cold one.
const certTol = 1e-6

// certified re-checks a warm solution independently of the solver that
// produced it: box constraints, budget, and the balance condition
// w_i·ϕ(x_i) = λ on interior coordinates.
func (s *Solver) certified(p numeric.WaterFillProblem, x []float64, lambda float64) bool {
	if !(lambda > 0) || math.IsInf(lambda, 1) {
		return false
	}
	var sum float64
	for i, v := range x {
		if math.IsNaN(v) || v < -certTol || v > p.Caps[i]+certTol {
			return false
		}
		sum += v
	}
	if math.Abs(sum-p.Budget) > certTol*math.Max(1, p.Budget) {
		return false
	}
	for i, v := range x {
		if p.Weights[i] <= 0 {
			continue
		}
		eps := certTol * math.Max(1, p.Caps[i])
		if v <= eps || v >= p.Caps[i]-eps {
			continue
		}
		if rel := math.Abs(p.Weights[i]*p.Deriv(v)-lambda) / lambda; rel > certTol {
			return false
		}
	}
	return true
}

// Solve computes the allocation for the given demand estimate. It returns
// the allocation, the dual level λ (0 when every demanded item is
// saturated), and whether the warm path produced the result. The solver
// retains the result as the warm-start state for the next call.
func (s *Solver) Solve(pop demand.Popularity) ([]float64, float64, bool, error) {
	p := s.problem(pop)
	if s.warm != nil {
		x, lambda, err := numeric.WaterFillWarm(p, s.warm)
		if err == nil && s.certified(p, x, lambda) {
			s.stats.Warm++
			s.warm = &numeric.WarmState{Lambda: lambda, X: x}
			return x, lambda, true, nil
		}
		s.stats.Fallback++
	}
	x, err := numeric.WaterFill(p)
	if err != nil {
		return nil, 0, false, err
	}
	s.stats.Cold++
	lambda, lerr := numeric.RecoverLambda(p, x)
	if lerr != nil {
		// Every coordinate clamped: no interior dual information. The
		// allocation is still valid; there is just nothing to warm-start
		// from next time.
		s.warm = nil
		return x, 0, false, nil
	}
	s.warm = &numeric.WarmState{Lambda: lambda, X: x}
	return x, lambda, false, nil
}

// SetWarmState seeds the warm-start state, used when restoring a
// snapshot. A nil state clears it.
func (s *Solver) SetWarmState(w *numeric.WarmState) { s.warm = w }
