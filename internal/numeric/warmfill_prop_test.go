package numeric

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// warmTol is the allocation-agreement bound the serving layer relies on:
// a warm re-solve must land within 1e-9 of the from-scratch solution on
// every coordinate (ISSUE 9 acceptance criterion).
const warmTol = 1e-9

// randomWarmProblem draws a water-filling instance from the serving
// regime: Pareto-ish weights over a catalog, per-item caps equal to the
// server count, a power-, step- or exponential-family derivative, and a
// budget strictly inside (0, Σcaps) so the solve is non-degenerate. Half
// of the problems carry the family's closed-form inverse, so the warm
// solve takes the path the serving solver takes; the other half exercise
// the secant.
func randomWarmProblem(rng *rand.Rand) WaterFillProblem {
	n := 2 + rng.IntN(40)
	servers := 5 + rng.IntN(200)
	weights := make([]float64, n)
	omega := 0.2 + 1.6*rng.Float64()
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -omega) * (0.5 + rng.Float64())
	}
	// A few zero-weight items exercise the unreachable-capacity logic.
	if n > 4 && rng.IntN(3) == 0 {
		weights[rng.IntN(n)] = 0
	}
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = float64(servers)
	}
	var deriv, inverse func(float64) float64
	mu := 0.01 + 0.2*rng.Float64()
	switch rng.IntN(3) {
	case 0: // power family: Phi ∝ x^{α−2}
		alpha := -1.5 + 2.4*rng.Float64() // α ∈ (−1.5, 0.9)
		c := math.Pow(mu, alpha-1) * math.Gamma(2-alpha)
		deriv = func(x float64) float64 { return c * math.Pow(x, alpha-2) }
		inverse = func(t float64) float64 { return math.Pow(t/c, 1/(alpha-2)) }
	case 1: // step family: Phi = µτ e^{−µτx}
		k := mu * (1 + 30*rng.Float64())
		deriv = func(x float64) float64 { return k * math.Exp(-k*x) }
		inverse = func(t float64) float64 { return (math.Log(k) - math.Log(t)) / k }
	default: // exponential family: Phi = µν/(µx+ν)²
		nu := 0.05 + rng.Float64()
		deriv = func(x float64) float64 {
			d := mu*x + nu
			return mu * nu / (d * d)
		}
		inverse = func(t float64) float64 { return (math.Sqrt(mu*nu/t) - nu) / mu }
	}
	var effCap float64
	for i := range caps {
		if weights[i] > 0 {
			effCap += caps[i]
		}
	}
	budget := effCap * (0.05 + 0.9*rng.Float64())
	if rng.IntN(2) == 0 {
		inverse = nil
	}
	return WaterFillProblem{Weights: weights, Caps: caps, Budget: budget, Deriv: deriv, Inverse: inverse}
}

// drift perturbs the weights the way the demand estimator does between
// re-solves: small multiplicative noise, occasionally a hard popularity
// jump (rank rotation or a single item seizing most of the demand).
func drift(rng *rand.Rand, w []float64) []float64 {
	out := append([]float64(nil), w...)
	switch rng.IntN(4) {
	case 0: // flash crowd: rotate ranks
		k := 1 + rng.IntN(len(out))
		rot := make([]float64, len(out))
		for i, v := range out {
			rot[(i+k)%len(out)] = v
		}
		out = rot
	case 1: // one item seizes the head
		i := rng.IntN(len(out))
		out[i] = out[i]*10 + 1
	default: // gentle EWMA-scale drift
		for i := range out {
			out[i] *= 1 + 0.1*(rng.Float64()-0.5)
		}
	}
	return out
}

// checkAgainstCold solves p both ways and asserts the warm solution matches
// the cold one coordinate-wise within warmTol, re-checking the budget, the
// box constraints, and the Property-1 balance condition on the warm result.
func checkAgainstCold(t *testing.T, p WaterFillProblem, warm *WarmState) *WarmState {
	t.Helper()
	cold, err := WaterFill(p)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	xw, lambda, err := WaterFillWarm(p, warm)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	var sum float64
	for i := range xw {
		if d := math.Abs(xw[i] - cold[i]); d > warmTol {
			t.Fatalf("coordinate %d: warm %.15g vs cold %.15g (Δ=%.3g > %g)", i, xw[i], cold[i], d, warmTol)
		}
		if xw[i] < -warmTol || xw[i] > p.Caps[i]+warmTol {
			t.Fatalf("coordinate %d: x=%g outside box [0,%g]", i, xw[i], p.Caps[i])
		}
		sum += xw[i]
	}
	if math.Abs(sum-p.Budget) > 1e-6*math.Max(1, p.Budget) {
		t.Fatalf("budget: Σx=%g want %g", sum, p.Budget)
	}
	// Property-1 balance: interior coordinates share the dual level.
	for i := range xw {
		if p.Weights[i] <= 0 {
			continue
		}
		eps := 1e-6 * math.Max(1, p.Caps[i])
		if xw[i] <= eps || xw[i] >= p.Caps[i]-eps {
			continue
		}
		m := p.Weights[i] * p.Deriv(xw[i])
		if rel := math.Abs(m-lambda) / lambda; rel > 1e-6 {
			t.Fatalf("balance: coordinate %d has w·ϕ=%g vs λ=%g (rel %g)", i, m, lambda, rel)
		}
	}
	return &WarmState{Lambda: lambda, X: xw}
}

// TestWaterFillWarmMatchesColdProperty re-solves ≥500 random configurations
// warm and cold, including chains of simulated demand jumps where each warm
// solve starts from the previous drifted solution.
func TestWaterFillWarmMatchesColdProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xa9ed, 7))
	cases := 0
	for trial := 0; trial < 180; trial++ {
		p := randomWarmProblem(rng)
		cold, err := WaterFill(p)
		if err != nil {
			t.Fatalf("trial %d cold seed solve: %v", trial, err)
		}
		lambda, err := RecoverLambda(p, cold)
		if err != nil {
			// All coordinates clamped: no dual information, nothing to warm.
			continue
		}
		state := &WarmState{Lambda: lambda, X: cold}
		// Chain of drifts: every warm solve starts from the previous state,
		// exactly like the serving loop.
		for hop := 0; hop < 3; hop++ {
			p.Weights = drift(rng, p.Weights)
			state = checkAgainstCold(t, p, state)
			cases++
		}
	}
	if cases < 500 {
		t.Fatalf("property suite exercised only %d warm solves, want ≥ 500", cases)
	}
}

// TestWaterFillWarmDegenerateSingleItem pins the all-demand-on-one-item
// case: the solver must park the whole budget on the demanded item (up to
// its cap) and agree with the cold path.
func TestWaterFillWarmDegenerateSingleItem(t *testing.T) {
	n := 12
	weights := make([]float64, n)
	weights[3] = 2.5
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 50
	}
	deriv := func(x float64) float64 { return 0.05 * 10 * math.Exp(-0.05*10*x) }
	p := WaterFillProblem{Weights: weights, Caps: caps, Budget: 30, Deriv: deriv}
	cold, err := WaterFill(p)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if math.Abs(cold[3]-30) > warmTol {
		t.Fatalf("cold parked %g on the demanded item, want 30", cold[3])
	}
	lambda, err := RecoverLambda(p, cold)
	if err != nil {
		t.Fatalf("recover λ: %v", err)
	}
	state := &WarmState{Lambda: lambda, X: cold}
	// Drift the single demanded item's weight and re-solve warm: the
	// allocation is pinned by the budget, not the weight, so it must not
	// move — and must still match cold exactly.
	p.Weights[3] = 7
	checkAgainstCold(t, p, state)

	// Then move all demand to a different item: the warm start's guess is
	// maximally wrong (previous allocation concentrated elsewhere).
	p.Weights[3] = 0
	p.Weights[9] = 1.25
	checkAgainstCold(t, p, state)
}

// TestWaterFillWarmInverseFallback pins the fallback of a non-finite
// Inverse: a coordinate whose closed form returns NaN or ±Inf is
// re-inverted by the secant, so the warm solve still equals the cold one.
func TestWaterFillWarmInverseFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xfa11, 3))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		name := fmt.Sprint(bad)
		for trial := 0; trial < 20; trial++ {
			p := randomWarmProblem(rng)
			cold, err := WaterFill(p)
			if err != nil {
				t.Fatalf("%s trial %d cold seed solve: %v", name, trial, err)
			}
			lambda, err := RecoverLambda(p, cold)
			if err != nil {
				continue
			}
			calls := 0
			p.Inverse = func(float64) float64 { calls++; return bad }
			p.Weights = drift(rng, p.Weights)
			checkAgainstCold(t, p, &WarmState{Lambda: lambda, X: cold})
			if calls == 0 {
				t.Fatalf("%s trial %d: the warm solve never called Inverse", name, trial)
			}
		}
	}
}

// TestWaterFillWarmRejectsUselessState documents the fallback contract:
// nil, mismatched, or non-positive warm states are ErrWarmStart, never a
// silently-cold solve with a wrong dual level attached.
func TestWaterFillWarmRejectsUselessState(t *testing.T) {
	p := WaterFillProblem{
		Weights: []float64{1, 2},
		Caps:    []float64{10, 10},
		Budget:  5,
		Deriv:   func(x float64) float64 { return 1 / (x * x) },
	}
	for name, warm := range map[string]*WarmState{
		"nil":         nil,
		"short":       {Lambda: 1, X: []float64{1}},
		"zero-lambda": {Lambda: 0, X: []float64{1, 1}},
		"nan-lambda":  {Lambda: math.NaN(), X: []float64{1, 1}},
		"inf-lambda":  {Lambda: math.Inf(1), X: []float64{1, 1}},
		"neg-lambda":  {Lambda: -2, X: []float64{1, 1}},
	} {
		if _, _, err := WaterFillWarm(p, warm); err != ErrWarmStart {
			t.Errorf("%s: err=%v, want ErrWarmStart", name, err)
		}
	}
}

// TestWaterFillSubnormalDualRegression pins the bisection fix the warm/cold
// property suite uncovered: a steep step-family transform pushes the dual
// level λ* below ~1e-154, where the old √(lo·hi) midpoint under- or
// subnormal-flowed and stopped the bisection with the bracket wide open.
// The slack pass then silently repaired a multi-unit budget gap, so the
// result satisfied Σx = Budget while violating the Property-1 balance
// condition by whole replicas.
func TestWaterFillSubnormalDualRegression(t *testing.T) {
	const (
		n      = 31
		cap    = 122.0
		muTau  = 6.0 // µτ steep enough that λ* = w·µτ·e^{−µτx} is subnormal²
		budget = 2650.0
	)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -0.8)
	}
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = cap
	}
	deriv := func(x float64) float64 { return muTau * math.Exp(-muTau*x) }
	p := WaterFillProblem{Weights: weights, Caps: caps, Budget: budget, Deriv: deriv}
	x, err := WaterFill(p)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	lambda, err := RecoverLambda(p, x)
	if err != nil {
		t.Fatalf("recover λ: %v", err)
	}
	if lambda > 1e-154 {
		t.Fatalf("λ=%g: the instance no longer exercises the subnormal regime", lambda)
	}
	for i, v := range x {
		eps := 1e-6 * cap
		if v <= eps || v >= cap-eps || weights[i] == 0 {
			continue
		}
		m := weights[i] * deriv(v)
		if rel := math.Abs(m-lambda) / lambda; rel > 1e-6 {
			t.Errorf("balance violated at coordinate %d: w·ϕ=%g vs λ=%g (rel %g)", i, m, lambda, rel)
		}
	}
}

// TestRecoverLambdaMatchesInteriorMarginal checks the dual recovered from a
// cold solution reproduces w_i·ϕ(x_i) on interior coordinates.
func TestRecoverLambdaMatchesInteriorMarginal(t *testing.T) {
	deriv := func(x float64) float64 { return math.Pow(x, -1.5) }
	p := WaterFillProblem{
		Weights: []float64{3, 2, 1, 0.5},
		Caps:    []float64{40, 40, 40, 40},
		Budget:  40,
		Deriv:   deriv,
	}
	x, err := WaterFill(p)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	lambda, err := RecoverLambda(p, x)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i := range x {
		if x[i] <= 1e-6 || x[i] >= p.Caps[i]-1e-6 {
			continue
		}
		m := p.Weights[i] * deriv(x[i])
		if rel := math.Abs(m-lambda) / lambda; rel > 1e-6 {
			t.Errorf("coordinate %d: w·ϕ=%g vs recovered λ=%g", i, m, lambda)
		}
	}
	if _, err := RecoverLambda(p, []float64{0, 0, 0, 0}); err != ErrWarmStart {
		t.Errorf("all-clamped allocation: err=%v, want ErrWarmStart", err)
	}
}
