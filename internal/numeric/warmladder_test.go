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
// on every coordinate and, from 1000 items on, be at least 5× faster.
// The speedup is a wall-clock ratio of interleaved solves on identical
// inputs; each solve is timed as the fastest of three runs, so that a
// GC pause or a busy neighbour does not land on one side only.
func TestWarmResolveLadder(t *testing.T) {
	const (
		servers, rho, mu = 100, 10, 0.05
		resolves, reps   = 12, 3
		equalTol         = 1e-9
		minSpeedup       = 5.0
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
		warm := &numeric.WarmState{Lambda: lambda, X: x}
		var coldWall, warmWall time.Duration
		var maxDelta float64
		for k := 1; k <= resolves; k++ {
			for i := range p.Weights {
				p.Weights[i] *= 1 + 0.02*math.Sin(float64((i+1)*k))
			}
			var xw, xc []float64
			var lw float64
			dw, err := fastest(func() (err error) {
				xw, lw, err = numeric.WaterFillWarm(p, warm)
				return err
			})
			if err != nil {
				t.Fatalf("%d items, re-solve %d: warm: %v", items, k, err)
			}
			dc, err := fastest(func() (err error) {
				xc, err = numeric.WaterFill(p)
				return err
			})
			if err != nil {
				t.Fatalf("%d items, re-solve %d: cold: %v", items, k, err)
			}
			warmWall += dw
			coldWall += dc
			for i := range xw {
				maxDelta = math.Max(maxDelta, math.Abs(xw[i]-xc[i]))
			}
			warm = &numeric.WarmState{Lambda: lw, X: xw}
		}
		speedup := float64(coldWall) / float64(warmWall)
		t.Logf("%5d items: cold %v, warm %v per re-solve, speedup %.1f×, max|Δx| %.2g",
			items, coldWall/resolves, warmWall/resolves, speedup, maxDelta)
		if maxDelta > equalTol {
			t.Errorf("%d items: warm and cold differ by %g > %g", items, maxDelta, equalTol)
		}
		if items >= 1000 && speedup < minSpeedup {
			t.Errorf("%d items: warm re-solve only %.2f× faster than cold, want ≥ %.0f×", items, speedup, minSpeedup)
		}
	}
}
