package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisect(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"linear", func(x float64) float64 { return x - 2 }, 0, 10, 2},
		{"quadratic", func(x float64) float64 { return x*x - 9 }, 0, 10, 3},
		{"cosine", math.Cos, 0, 3, math.Pi / 2},
		{"exp", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 10, math.Log(5)},
		{"root at a", func(x float64) float64 { return x }, 0, 1, 0},
		{"root at b", func(x float64) float64 { return x - 1 }, 0, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Bisect(tt.f, tt.a, tt.b, 1e-12)
			if err != nil {
				t.Fatalf("Bisect: %v", err)
			}
			if math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("got %g, want %g", got, tt.want)
			}
		})
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -5, 5, 1e-12); err != ErrNoBracket {
		t.Errorf("got err=%v, want ErrNoBracket", err)
	}
}

func TestInvertDecreasing(t *testing.T) {
	tests := []struct {
		name   string
		f      func(float64) float64
		target float64
		want   float64
	}{
		{"reciprocal", func(x float64) float64 { return 1 / x }, 4, 0.25},
		{"exp decay", func(x float64) float64 { return math.Exp(-x) }, 0.1, -math.Log(0.1)},
		{"power", func(x float64) float64 { return math.Pow(x, -2) }, 16, 0.25},
		{"shifted", func(x float64) float64 { return 10 - x }, 3, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := InvertDecreasing(tt.f, tt.target, 1)
			if err != nil {
				t.Fatalf("InvertDecreasing: %v", err)
			}
			if math.Abs(got-tt.want) > 1e-8*math.Max(1, tt.want) {
				t.Errorf("got %g, want %g", got, tt.want)
			}
		})
	}
}

// Property: InvertDecreasing is a true inverse for the ϕ-like family
// f(x) = c·x^{-p} over a broad range of targets and starting guesses.
func TestInvertDecreasingProperty(t *testing.T) {
	prop := func(cRaw, pRaw, targetRaw, x0Raw float64) bool {
		c := 0.1 + math.Abs(math.Mod(cRaw, 10))
		p := 0.2 + math.Abs(math.Mod(pRaw, 3))
		target := 0.01 + math.Abs(math.Mod(targetRaw, 100))
		x0 := 0.01 + math.Abs(math.Mod(x0Raw, 50))
		f := func(x float64) float64 { return c * math.Pow(x, -p) }
		x, err := InvertDecreasing(f, target, x0)
		if err != nil {
			return false
		}
		return almostEqual(f(x), target, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWaterFillUniform(t *testing.T) {
	// Equal weights, log-like derivative → equal split.
	p := WaterFillProblem{
		Weights: []float64{1, 1, 1, 1},
		Caps:    []float64{100, 100, 100, 100},
		Budget:  20,
		Deriv:   func(x float64) float64 { return 1 / x },
	}
	x, err := WaterFill(p)
	if err != nil {
		t.Fatalf("WaterFill: %v", err)
	}
	for i, v := range x {
		if !almostEqual(v, 5, 1e-6) {
			t.Errorf("x[%d]=%g, want 5", i, v)
		}
	}
}

func TestWaterFillProportional(t *testing.T) {
	// Deriv(x)=1/x makes the optimum proportional to the weights
	// (balance: w_i/x_i = λ ⇒ x_i ∝ w_i).
	p := WaterFillProblem{
		Weights: []float64{4, 2, 1, 1},
		Caps:    []float64{1000, 1000, 1000, 1000},
		Budget:  16,
		Deriv:   func(x float64) float64 { return 1 / x },
	}
	x, err := WaterFill(p)
	if err != nil {
		t.Fatalf("WaterFill: %v", err)
	}
	want := []float64{8, 4, 2, 2}
	for i := range x {
		if !almostEqual(x[i], want[i], 1e-6) {
			t.Errorf("x[%d]=%g, want %g", i, x[i], want[i])
		}
	}
}

func TestWaterFillCaps(t *testing.T) {
	// A dominant weight saturates at its cap; the rest share the remainder.
	p := WaterFillProblem{
		Weights: []float64{100, 1, 1},
		Caps:    []float64{3, 50, 50},
		Budget:  13,
		Deriv:   func(x float64) float64 { return 1 / x },
	}
	x, err := WaterFill(p)
	if err != nil {
		t.Fatalf("WaterFill: %v", err)
	}
	if !almostEqual(x[0], 3, 1e-6) {
		t.Errorf("x[0]=%g, want cap 3", x[0])
	}
	if !almostEqual(x[1], 5, 1e-6) || !almostEqual(x[2], 5, 1e-6) {
		t.Errorf("x[1:]=%v, want 5,5", x[1:])
	}
}

func TestWaterFillBudgetEqualsCapSum(t *testing.T) {
	p := WaterFillProblem{
		Weights: []float64{1, 2},
		Caps:    []float64{3, 4},
		Budget:  7,
		Deriv:   func(x float64) float64 { return 1 / x },
	}
	x, err := WaterFill(p)
	if err != nil {
		t.Fatalf("WaterFill: %v", err)
	}
	if !almostEqual(x[0], 3, 1e-9) || !almostEqual(x[1], 4, 1e-9) {
		t.Errorf("x=%v, want caps", x)
	}
}

func TestWaterFillInfeasible(t *testing.T) {
	p := WaterFillProblem{
		Weights: []float64{1},
		Caps:    []float64{1},
		Budget:  2,
		Deriv:   func(x float64) float64 { return 1 / x },
	}
	if _, err := WaterFill(p); err != ErrInfeasible {
		t.Errorf("got err=%v, want ErrInfeasible", err)
	}
}

func TestWaterFillZeroBudget(t *testing.T) {
	p := WaterFillProblem{
		Weights: []float64{1, 1},
		Caps:    []float64{5, 5},
		Budget:  0,
		Deriv:   func(x float64) float64 { return 1 / x },
	}
	x, err := WaterFill(p)
	if err != nil {
		t.Fatalf("WaterFill: %v", err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("x=%v, want zeros", x)
	}
}

// Property: the water-filled solution exhausts the budget, respects caps,
// and satisfies the Property-1 balance condition on interior coordinates.
func TestWaterFillBalanceProperty(t *testing.T) {
	prop := func(seedW [5]float64, budgetRaw, pRaw float64) bool {
		w := make([]float64, 5)
		caps := make([]float64, 5)
		var capSum float64
		for i := range w {
			w[i] = 0.1 + math.Abs(math.Mod(seedW[i], 10))
			caps[i] = 40
			capSum += caps[i]
		}
		budget := 1 + math.Abs(math.Mod(budgetRaw, capSum-2))
		p := 0.3 + math.Abs(math.Mod(pRaw, 2))
		deriv := func(x float64) float64 { return math.Pow(x, -p) }
		x, err := WaterFill(WaterFillProblem{Weights: w, Caps: caps, Budget: budget, Deriv: deriv})
		if err != nil {
			return false
		}
		var total float64
		for i, v := range x {
			if v < -1e-9 || v > caps[i]+1e-9 {
				return false
			}
			total += v
		}
		if !almostEqual(total, budget, 1e-6) {
			return false
		}
		// Balance condition over interior coordinates.
		var lambda float64
		var seen bool
		for i, v := range x {
			if v > 1e-9 && v < caps[i]-1e-6 {
				m := w[i] * deriv(v)
				if !seen {
					lambda, seen = m, true
				} else if !almostEqual(m, lambda, 1e-4) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
