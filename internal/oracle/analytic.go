package oracle

// Analytic differentials: checks that run in milliseconds and compare
// independent computations of the same theoretical object — the
// mean-field fixed point vs water-filling on Property 1, the
// greedy/relaxed welfare sandwich of Theorem 2.

import (
	"fmt"
	"math"

	"impatience/internal/demand"
	"impatience/internal/meanfield"
	"impatience/internal/numeric"
	"impatience/internal/utility"
	"impatience/internal/welfare"
)

const (
	// Mean-field gates.
	mfBudgetTol  = 1e-3 // |Σx − ρS| / ρS after integration
	mfBalanceTol = 5e-3 // spread of d_i·ϕ(x_i) across interior items
	mfMatchTol   = 0.02 // L∞ relative distance to the water-filling optimum

	// Sandwich gates: the bounds are exact theorems, so only float
	// roundoff is tolerated; the integrality gap is reported and softly
	// bounded.
	sandwichRelTol = 1e-9
	sandwichGapMax = 0.10
)

// capsAt builds a flat cap vector (the budget itself: no binding cap).
func capsAt(items int, cap float64) []float64 {
	caps := make([]float64, items)
	for i := range caps {
		caps[i] = cap
	}
	return caps
}

// anaUtilities spans the four families of Table 1 (bounded, deadline,
// inverse-power reward and the two unbounded cost types).
func anaUtilities() []utility.Function {
	return []utility.Function{
		utility.Step{Tau: 5},
		utility.Step{Tau: 20},
		utility.Exponential{Nu: 0.1},
		utility.Power{Alpha: 1.5},
		utility.Power{Alpha: 0},
		utility.NegLog{},
	}
}

// anaSystem builds the dedicated-node closed-form system the analytic
// checks share. The dedicated transform ϕ is what both RelaxedOptimal
// water-fills on and the Property-2 reaction ψ is tuned with, so this —
// not the pure-P2P correction — is the objective the fixed point and the
// sandwich are exact for.
func (s *session) anaSystem(u utility.Function) welfare.Homogeneous {
	return welfare.Homogeneous{
		Utility: u,
		Pop:     demand.Pareto(s.p.anaItems, 1, 2),
		Mu:      0.05,
		Servers: s.p.anaNodes,
		Clients: s.p.anaNodes,
	}
}

// checkMeanFieldFixedPoint integrates the QCR fluid limit (Eq. 7) to its
// steady state for each utility family and asserts the Property-1
// picture: the budget invariant Σx = ρS holds, the balance terms
// d_i·ϕ(x_i) are constant across interior items, and the fixed point
// coincides with the water-filling optimum computed by an entirely
// different algorithm (internal/numeric dual root search vs RK4 integration).
func (s *session) checkMeanFieldFixedPoint() CheckResult {
	res := CheckResult{Pass: true, Seed: s.cfg.Seed}
	for _, u := range anaUtilities() {
		hom := s.anaSystem(u)
		sys := meanfield.System{
			Utility: u,
			Pop:     hom.Pop,
			Mu:      hom.Mu,
			Servers: hom.Servers,
			Rho:     s.p.rho,
		}
		x, converged, err := sys.RunToSteadyState(sys.UniformStart(), 200000, 2, 1e-8)
		if err != nil {
			return infraFail(res, fmt.Errorf("%s: %w", u.Name(), err))
		}
		if !converged {
			res.Pass = false
			res.Details = append(res.Details, fmt.Sprintf("FAIL %s: ODE did not reach steady state", u.Name()))
			res.Effect = math.Inf(1)
			continue
		}
		budget := float64(sys.Servers * sys.Rho)
		var sum float64
		for _, xi := range x {
			sum += xi
		}
		budgetErr := math.Abs(sum-budget) / budget
		ok, line := assertLine(budgetErr <= mfBudgetTol,
			"%s: budget Σx=%.4f vs ρS=%g (rel err %.2g ≤ %g)", u.Name(), sum, budget, budgetErr, mfBudgetTol)
		res.Details = append(res.Details, line)
		res.Pass = res.Pass && ok
		res.Effect = maxf(res.Effect, budgetErr/mfBudgetTol)

		// Balance spread over interior items (away from the sticky floor,
		// where the fluid dynamics clamp and the multiplier detaches).
		lo, hi := math.Inf(1), math.Inf(-1)
		interior := 0
		for i, xi := range x {
			if xi < 0.01 || hom.Pop.Rates[i] <= 0 {
				continue
			}
			b := hom.Pop.Rates[i] * u.Phi(hom.Mu, xi)
			lo, hi = math.Min(lo, b), math.Max(hi, b)
			interior++
		}
		if interior < 2 {
			return infraFail(res, fmt.Errorf("%s: only %d interior items", u.Name(), interior))
		}
		spread := (hi - lo) / math.Max(lo, math.SmallestNonzeroFloat64)
		ok, line = assertLine(spread <= mfBalanceTol,
			"%s: balance d·ϕ(x) spread %.2g over %d interior items ≤ %g", u.Name(), spread, interior, mfBalanceTol)
		res.Details = append(res.Details, line)
		res.Pass = res.Pass && ok
		res.Effect = maxf(res.Effect, spread/mfBalanceTol)

		// The fluid limit has no per-item cap x_i ≤ |S| (unlike
		// RelaxedOptimal, whose caps model one copy per server), so the
		// honest comparison is UNCAPPED water-filling on the same balance
		// condition — computed by a root search on the dual level, a wholly
		// different algorithm than the RK4 integration it must agree with.
		xt, err := numeric.WaterFill(numeric.WaterFillProblem{
			Weights: hom.Pop.Rates,
			Caps:    capsAt(len(x), budget),
			Budget:  budget,
			Deriv:   func(xv float64) float64 { return u.Phi(hom.Mu, xv) },
		})
		if err != nil {
			return infraFail(res, fmt.Errorf("%s: water-fill: %w", u.Name(), err))
		}
		var worst float64
		for i := range x {
			worst = maxf(worst, math.Abs(x[i]-xt[i])/math.Max(xt[i], 1))
		}
		ok, line = assertLine(worst <= mfMatchTol,
			"%s: fixed point vs water-filling L∞ rel err %.2g ≤ %g", u.Name(), worst, mfMatchTol)
		res.Details = append(res.Details, line)
		res.Pass = res.Pass && ok
		res.Effect = maxf(res.Effect, worst/mfMatchTol)
	}
	return res
}

// checkGreedyRelaxedSandwich asserts Theorem 2's exact integrality
// sandwich U(⌊x̃⌋) ≤ U(greedy) ≤ U(x̃) for every utility family, with
// only float roundoff tolerated, and softly bounds the relative
// greedy/relaxed gap (the paper's large-system argument says it is
// small at these capacities).
func (s *session) checkGreedyRelaxedSandwich() CheckResult {
	res := CheckResult{Pass: true, Seed: s.cfg.Seed}
	for _, u := range anaUtilities() {
		hom := s.anaSystem(u)
		xt, err := hom.RelaxedOptimal(s.p.rho)
		if err != nil {
			return infraFail(res, fmt.Errorf("%s: relaxed: %w", u.Name(), err))
		}
		urel := hom.Welfare(xt)
		greedy, err := hom.GreedyOptimal(s.p.rho)
		if err != nil {
			return infraFail(res, fmt.Errorf("%s: greedy: %w", u.Name(), err))
		}
		ug := hom.WelfareCounts(greedy)

		// Floor of the relaxed solution: a feasible integer allocation, so
		// its welfare lower-bounds the integer optimum. Cost-type utilities
		// have U = −∞ at zero replicas; bumping floored-to-zero items to 1
		// keeps feasibility whenever the budget allows (Σ⌊x̃⌋ ≤ Σx̃) and
		// keeps the bound informative.
		floor := make([]float64, len(xt))
		var used float64
		for i, v := range xt {
			floor[i] = math.Floor(v)
			used += floor[i]
		}
		budget := float64(hom.Servers * s.p.rho)
		for i := range floor {
			if floor[i] == 0 && hom.Pop.Rates[i] > 0 && used+1 <= budget {
				floor[i] = 1
				used++
			}
		}
		ufloor := hom.Welfare(floor)

		scale := math.Max(math.Abs(urel), 1)
		okHi, lineHi := assertLine(ug <= urel+sandwichRelTol*scale,
			"%s: U(greedy)=%.6f ≤ U(x̃)=%.6f", u.Name(), ug, urel)
		okLo, lineLo := assertLine(ufloor <= ug+sandwichRelTol*scale,
			"%s: U(⌊x̃⌋)=%.6f ≤ U(greedy)=%.6f", u.Name(), ufloor, ug)
		gap := (urel - ug) / scale
		okGap, lineGap := assertLine(gap <= sandwichGapMax,
			"%s: relative integrality gap %.4f ≤ %g", u.Name(), gap, sandwichGapMax)
		res.Details = append(res.Details, lineHi, lineLo, lineGap)
		res.Pass = res.Pass && okHi && okLo && okGap
		res.Effect = maxf(res.Effect, maxf((ug-urel)/(sandwichRelTol*scale), gap/sandwichGapMax))
	}
	return res
}
