package numeric

import (
	"errors"
	"fmt"
	"math"
)

// WaterFillProblem describes a separable concave resource-allocation
// problem:
//
//	maximize   Σ_i w_i G(x_i)
//	subject to Σ_i x_i = Budget,  0 ≤ x_i ≤ Cap_i
//
// with G concave increasing, described through its derivative: Deriv(x) is
// G'(x), a continuous strictly decreasing positive function of x > 0. This
// is exactly the relaxed social-welfare maximization of Theorem 2, whose
// optimality condition is Property 1: w_i·Deriv(x_i) equal across all
// interior coordinates.
type WaterFillProblem struct {
	Weights []float64               // w_i > 0 (items with w_i = 0 receive 0)
	Caps    []float64               // per-coordinate upper bounds (e.g. |S|)
	Budget  float64                 // total resource (e.g. ρ·|S|)
	Deriv   func(x float64) float64 // G'(x), strictly decreasing in x
	// DerivFor, when non-nil, gives each coordinate its own derivative
	// (per-item delay-utilities: maximize Σ w_i·G_i(x_i) with balance
	// condition w_i·G_i'(x_i) = λ). Takes precedence over Deriv.
	DerivFor func(i int, x float64) float64
	// Inverse, when non-nil, is Deriv⁻¹: the x > 0 with Deriv(x) = t.
	// Only the warm re-solve reads it, and only when DerivFor is nil; a
	// non-finite result falls back to numeric inversion. WaterFill never
	// reads it, so it stays the numeric reference.
	Inverse func(t float64) float64
}

// derivFor resolves the derivative for coordinate i.
func (p WaterFillProblem) derivFor(i int) func(float64) float64 {
	if p.DerivFor != nil {
		return func(x float64) float64 { return p.DerivFor(i, x) }
	}
	return p.Deriv
}

// ErrInfeasible is returned when the budget exceeds the sum of caps (the
// problem has no feasible point using the whole budget) or inputs are
// malformed.
var ErrInfeasible = errors.New("numeric: water-filling problem infeasible")

// WaterFill solves the problem by a root search on the Lagrange multiplier
// λ: for a trial λ each coordinate takes x_i(λ) = clamp(Deriv⁻¹(λ/w_i), 0,
// Cap_i) and λ is adjusted until Σ x_i(λ) = Budget. The returned slice
// satisfies the balance condition of Property 1 up to the solver
// tolerance.
func WaterFill(p WaterFillProblem) ([]float64, error) {
	x, capSum, done, err := p.start()
	if err != nil || done {
		return x, err
	}

	// fill records the first per-coordinate inversion failure instead of
	// silently zeroing the coordinate: a NaN derivative or a vanished
	// bracket means the balance condition cannot be certified, and the
	// caller must hear about it rather than receive a plausible-looking
	// allocation.
	var fillErr error
	fill := func(lambda float64) float64 {
		return p.fillAt(lambda, x, &fillErr)
	}

	// Bracket lambda: large lambda → small fill, small lambda → large fill.
	// Derive bounds from the extreme per-coordinate marginal values.
	var hi, lo float64 = 0, math.Inf(1)
	probe := p.Budget/float64(4*len(x)) + tiny
	for i, w := range p.Weights {
		if w <= 0 {
			continue
		}
		deriv := p.derivFor(i)
		if v := w * deriv(probe); v > hi && !math.IsInf(v, 1) && !math.IsNaN(v) {
			hi = v
		}
		if v := w * deriv(capSum); v < lo && v > 0 && !math.IsNaN(v) {
			lo = v
		}
	}
	if hi == 0 {
		hi = 1e300
	}
	if math.IsInf(lo, 1) || lo <= 0 {
		lo = 1e-300
	}
	// Widen ×4 until the bracket holds the sign change; one that would
	// leave the float range is left unbracketed for Brent to report.
	fhi := fill(hi)
	for ; fhi > p.Budget && hi < math.MaxFloat64/4; fhi = fill(hi) {
		hi *= 4
	}
	flo := fill(lo)
	for ; flo < p.Budget && lo/4 > 0; flo = fill(lo) {
		lo /= 4
	}
	if _, err := p.solveDual(fill, x, lo, hi, flo, fhi, &fillErr); err != nil {
		return nil, err
	}
	return x, nil
}

// start validates the problem and allocates its solution. done reports a
// problem settled without a λ search: a zero budget, or one that saturates
// every positive-weight coordinate. capSum is Σ Cap_i.
func (p WaterFillProblem) start() (x []float64, capSum float64, done bool, err error) {
	n := len(p.Weights)
	if n == 0 || len(p.Caps) != n || p.Budget < 0 || (p.Deriv == nil && p.DerivFor == nil) {
		return nil, 0, false, ErrInfeasible
	}
	// Feasibility is measured against the capacity actually reachable:
	// zero-weight coordinates never receive anything (their caps are not
	// usable capacity), so a budget exceeding the positive-weight cap sum
	// has no solution respecting both the box constraints and Σ x = Budget.
	var effCap float64
	for i, c := range p.Caps {
		if c < 0 || p.Weights[i] < 0 {
			return nil, 0, false, ErrInfeasible
		}
		capSum += c
		if p.Weights[i] > 0 {
			effCap += c
		}
	}
	if p.Budget > effCap*(1+1e-9) {
		return nil, 0, false, ErrInfeasible
	}
	x = make([]float64, n)
	if p.Budget > 0 && p.Budget >= effCap {
		for i := range x {
			if p.Weights[i] > 0 {
				x[i] = p.Caps[i]
			}
		}
	}
	return x, capSum, p.Budget == 0 || p.Budget >= effCap, nil
}

// dualTol is the absolute tolerance of the λ search on ln λ, so λ itself
// is resolved to ~1e-15 relative at any magnitude.
const dualTol = 1e-15

// solveDual closes a sign-bracket lo ≤ hi of fill(λ) − Budget (flo ≥
// Budget ≥ fhi) with Brent on ln λ: the multiplier spans orders of
// magnitude, and log space keeps dual levels far outside the normal float
// range (steep step-utility transforms) as well-resolved as λ ≈ 1. It then
// refills x on the Σx ≤ Budget side of the final bracket, settles the
// rounding slack and returns the dual level.
func (p WaterFillProblem) solveDual(fill func(float64) float64, x []float64, lo, hi, flo, fhi float64, fillErr *error) (float64, error) {
	u, err := Brent(func(u float64) float64 { return fill(math.Exp(u)) - p.Budget },
		math.Log(lo), math.Log(hi), flo-p.Budget, fhi-p.Budget, dualTol)
	var lambda, total float64
	if err == nil {
		lambda = math.Exp(u)
		total = fill(lambda)
	}
	if *fillErr != nil {
		return 0, *fillErr
	}
	if err != nil {
		return 0, err
	}
	return lambda, p.settle(x, total)
}

// settle distributes any residual rounding slack proportionally over
// interior coordinates so Σ x_i = Budget holds tightly, then certifies the
// budget constraint: if the λ search stalled (flat or ill-conditioned
// derivatives) the slack pass cannot repair an arbitrarily large gap, and
// the result would quietly violate Σ x_i = Budget. The tolerance is loose
// enough for honest rounding.
func (p WaterFillProblem) settle(x []float64, total float64) error {
	if slack := p.Budget - total; math.Abs(slack) > 1e-12*math.Max(1, p.Budget) {
		var room float64
		for i := range x {
			if p.Weights[i] > 0 {
				if slack > 0 {
					room += p.Caps[i] - x[i]
				} else {
					room += x[i]
				}
			}
		}
		if room > 0 {
			for i := range x {
				if p.Weights[i] == 0 {
					continue
				}
				if slack > 0 {
					x[i] += slack * (p.Caps[i] - x[i]) / room
				} else {
					x[i] += slack * x[i] / room
				}
			}
		}
	}
	var sum float64
	for _, v := range x {
		if math.IsNaN(v) {
			return ErrNaN
		}
		sum += v
	}
	if math.Abs(sum-p.Budget) > 1e-6*math.Max(1, p.Budget) {
		return ErrNoConverge
	}
	return nil
}

// fillAt computes the per-coordinate allocation x_i(λ) = clamp(Deriv⁻¹(λ/w_i),
// 0, Cap_i) into x and returns Σ x_i, inverting each coordinate from the
// cold-start guess Cap_i/2. The first inversion failure is recorded in
// *fillErr so callers reject allocations whose balance condition cannot be
// certified.
func (p WaterFillProblem) fillAt(lambda float64, x []float64, fillErr *error) float64 {
	var total float64
	for i := range x {
		w := p.Weights[i]
		if w == 0 || p.Caps[i] == 0 {
			x[i] = 0
			continue
		}
		deriv := p.derivFor(i)
		// Solve deriv(v) = lambda/w for v, clamped to [0, cap].
		target := lambda / w
		if deriv(p.Caps[i]) >= target {
			x[i] = p.Caps[i]
		} else if d0 := deriv(tiny); d0 <= target && !math.IsInf(d0, 1) {
			x[i] = 0
		} else {
			v, err := InvertDecreasing(deriv, target, p.Caps[i]/2)
			if err != nil {
				if *fillErr == nil {
					*fillErr = fmt.Errorf("numeric: water-filling coordinate %d at λ=%g: %w", i, lambda, err)
				}
				v = 0
			}
			if v < 0 {
				v = 0
			}
			if v > p.Caps[i] {
				v = p.Caps[i]
			}
			x[i] = v
		}
		total += x[i]
	}
	return total
}

// tiny is the smallest argument at which the water-filling solver probes a
// derivative; ϕ transforms may diverge at 0 so probing exactly 0 is unsafe.
const tiny = 1e-12
