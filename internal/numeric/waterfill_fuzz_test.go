package numeric

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// fuzzProblem decodes a water-filling instance from fuzz input: each pair
// of bytes in items is one coordinate (a weight spanning e^-8…e^8, zero
// for a zero byte, and a cap in [0, 63.75]), at most 64 of them; family
// picks a step, exponential or power ϕ transform with its parameter drawn
// from param; budgetFrac places the budget inside the reachable capacity.
// With inverse set the problem carries the transform's closed-form
// inverse.
func fuzzProblem(items []byte, family uint8, param, budgetFrac float64, inverse bool) (WaterFillProblem, bool) {
	n := min(len(items)/2, 64)
	if n == 0 || math.IsNaN(param) || math.IsInf(param, 0) || math.IsNaN(budgetFrac) || math.IsInf(budgetFrac, 0) {
		return WaterFillProblem{}, false
	}
	p := WaterFillProblem{Weights: make([]float64, n), Caps: make([]float64, n)}
	var effCap float64
	for i := range n {
		if w := items[2*i]; w != 0 {
			p.Weights[i] = math.Exp(float64(int(w)-128) / 16)
		}
		p.Caps[i] = float64(items[2*i+1]) / 4
		if p.Weights[i] > 0 {
			effCap += p.Caps[i]
		}
	}
	frac := math.Abs(math.Mod(param, 1)) // in [0, 1)
	switch family % 3 {
	case 0: // step: µτ e^{−µτx}, µτ ∈ [0.01, 6]
		k := 0.01 + 6*frac
		p.Deriv = func(x float64) float64 { return k * math.Exp(-k*x) }
		p.Inverse = func(t float64) float64 { return (math.Log(k) - math.Log(t)) / k }
	case 1: // exponential: µν/(µx+ν)², µ = 0.05, ν ∈ [0.05, 1.05]
		nu := 0.05 + frac
		p.Deriv = func(x float64) float64 {
			d := 0.05*x + nu
			return 0.05 * nu / (d * d)
		}
		p.Inverse = func(t float64) float64 { return (math.Sqrt(0.05*nu/t) - nu) / 0.05 }
	default: // power: x^{α−2}, α ∈ [−1.5, 0.9]
		e := -3.5 + 2.4*frac
		p.Deriv = func(x float64) float64 { return math.Pow(x, e) }
		p.Inverse = func(t float64) float64 { return math.Pow(t, 1/e) }
	}
	if !inverse {
		p.Inverse = nil
	}
	p.Budget = effCap * math.Abs(math.Mod(budgetFrac, 1))
	return p, true
}

// namedErr reports whether err is one of the package's documented
// failure modes rather than an anonymous breakdown.
func namedErr(err error) bool {
	for _, e := range []error{ErrInfeasible, ErrNoConverge, ErrNaN, ErrNoBracket} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// FuzzWaterFill checks both solvers' contracts on arbitrary instances: the
// cold solve meets the budget, the box and the Property-1 balance, or
// returns a named error; a warm solve started from the cold dual level on
// perturbed weights equals the cold solve of the perturbed problem within
// warmTol, or returns ErrWarmStart. Odd seeds give the problem its
// closed-form inverse, which only the warm solve reads.
func FuzzWaterFill(f *testing.F) {
	f.Add([]byte{200, 40, 150, 40, 128, 40, 90, 40}, uint8(0), 0.3, 0.4, uint64(1))
	f.Add([]byte{255, 255, 1, 255, 0, 255, 130, 1, 129, 0}, uint8(1), 0.9, 0.99, uint64(2))
	f.Add([]byte{128, 8, 136, 16, 144, 32, 152, 64, 160, 128, 168, 255}, uint8(2), 0.5, 0.05, uint64(3))
	f.Fuzz(func(t *testing.T, items []byte, family uint8, param, budgetFrac float64, seed uint64) {
		p, ok := fuzzProblem(items, family, param, budgetFrac, seed&1 == 1)
		if !ok {
			return
		}
		x, err := WaterFill(p)
		if err != nil {
			if !namedErr(err) {
				t.Fatalf("cold solve: unnamed error %v", err)
			}
			return
		}
		checkSolution(t, 0, p, x)
		lambda, err := RecoverLambda(p, x)
		if err != nil {
			return // every coordinate clamped: nothing to warm-start from
		}
		rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
		p.Weights = drift(rng, p.Weights)
		cold, err := WaterFill(p)
		if err != nil {
			return
		}
		warm, _, err := WaterFillWarm(p, &WarmState{Lambda: lambda, X: x})
		if err != nil {
			if !errors.Is(err, ErrWarmStart) {
				t.Fatalf("warm solve: %v, want ErrWarmStart", err)
			}
			return
		}
		for i := range warm {
			if d := math.Abs(warm[i] - cold[i]); d > warmTol {
				t.Fatalf("coordinate %d: warm %.15g vs cold %.15g (Δ=%.3g)", i, warm[i], cold[i], d)
			}
		}
	})
}
