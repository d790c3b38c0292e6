package numeric_test

import (
	"math"
	"testing"
	"time"

	"impatience/internal/demand"
	"impatience/internal/numeric"
	"impatience/internal/utility"
)

// TestWarmResolveLadder is the serving solver's gate at catalog sizes up
// to 3000: after each drift of the kind the demand estimator produces
// between windows, the warm re-solve must equal a cold solve within 1e-9
// on every coordinate and, from 1000 items on, be faster by each rung's
// bound: 5× for the log-space secant inversion, 20× with the closed-form
// ϕ⁻¹ the serving solver passes. The speedup is a wall-clock ratio of
// interleaved solves on identical inputs; each solve is timed as the
// fastest of three runs, so that a GC pause or a busy neighbour does not
// land on one side only.
func TestWarmResolveLadder(t *testing.T) {
	const (
		servers, rho, mu = 100, 10, 0.05
		resolves, reps   = 12, 3
		equalTol         = 1e-9
	)
	fastest := func(solve func() error) (time.Duration, error) {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if err := solve(); err != nil {
				return 0, err
			}
			best = min(best, time.Since(t0))
		}
		return best, nil
	}
	f := utility.Step{Tau: 10}
	type rung struct {
		name       string
		inverse    func(float64) float64
		minSpeedup float64
		warm       *numeric.WarmState
		wall       time.Duration
		maxDelta   float64
	}
	for _, items := range []int{100, 300, 1000, 3000} {
		caps := make([]float64, items)
		for i := range caps {
			caps[i] = servers
		}
		p := numeric.WaterFillProblem{
			Weights: demand.Pareto(items, 1, 1000).Rates,
			Caps:    caps,
			Budget:  servers * rho,
			Deriv:   func(x float64) float64 { return f.Phi(mu, x) },
		}
		x, err := numeric.WaterFill(p)
		if err != nil {
			t.Fatal(err)
		}
		lambda, err := numeric.RecoverLambda(p, x)
		if err != nil {
			t.Fatal(err)
		}
		rungs := []*rung{
			{name: "secant", minSpeedup: 5},
			{name: "closed-form", inverse: func(v float64) float64 { return f.PhiInv(mu, v) }, minSpeedup: 20},
		}
		for _, r := range rungs {
			r.warm = &numeric.WarmState{Lambda: lambda, X: x}
		}
		var coldWall time.Duration
		for k := 1; k <= resolves; k++ {
			for i := range p.Weights {
				p.Weights[i] *= 1 + 0.02*math.Sin(float64((i+1)*k))
			}
			var xc []float64
			dc, err := fastest(func() (err error) {
				xc, err = numeric.WaterFill(p)
				return err
			})
			if err != nil {
				t.Fatalf("%d items, re-solve %d: cold: %v", items, k, err)
			}
			coldWall += dc
			for _, r := range rungs {
				rp := p
				rp.Inverse = r.inverse
				var xw []float64
				var lw float64
				dw, err := fastest(func() (err error) {
					xw, lw, err = numeric.WaterFillWarm(rp, r.warm)
					return err
				})
				if err != nil {
					t.Fatalf("%d items, re-solve %d: %s warm: %v", items, k, r.name, err)
				}
				r.wall += dw
				for i := range xw {
					r.maxDelta = math.Max(r.maxDelta, math.Abs(xw[i]-xc[i]))
				}
				r.warm = &numeric.WarmState{Lambda: lw, X: xw}
			}
		}
		for _, r := range rungs {
			speedup := float64(coldWall) / float64(r.wall)
			t.Logf("%5d items, %-11s: cold %v, warm %v per re-solve, speedup %.1f×, max|Δx| %.2g",
				items, r.name, coldWall/resolves, r.wall/resolves, speedup, r.maxDelta)
			if r.maxDelta > equalTol {
				t.Errorf("%d items, %s: warm and cold differ by %g > %g", items, r.name, r.maxDelta, equalTol)
			}
			if items >= 1000 && speedup < r.minSpeedup {
				t.Errorf("%d items, %s: warm re-solve only %.2f× faster than cold, want ≥ %.0f×", items, r.name, speedup, r.minSpeedup)
			}
		}
	}
}
