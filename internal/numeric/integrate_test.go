package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestIntegratePolynomial(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 3 }, 0, 5, 15},
		{"linear", func(x float64) float64 { return 2 * x }, 0, 4, 16},
		{"quadratic", func(x float64) float64 { return x * x }, 0, 3, 9},
		{"cubic", func(x float64) float64 { return x * x * x }, -1, 1, 0},
		{"reversed", func(x float64) float64 { return 2 * x }, 4, 0, -16},
		{"empty", func(x float64) float64 { return 1e9 }, 2, 2, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Integrate(tt.f, tt.a, tt.b, 1e-12)
			if err != nil {
				t.Fatalf("Integrate: %v", err)
			}
			if !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("got %g, want %g", got, tt.want)
			}
		})
	}
}

func TestIntegrateTranscendental(t *testing.T) {
	got, err := Integrate(math.Sin, 0, math.Pi, 1e-12)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	if !almostEqual(got, 2, 1e-9) {
		t.Errorf("∫sin over [0,π] = %g, want 2", got)
	}
	got, err = Integrate(math.Exp, 0, 1, 1e-12)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	if !almostEqual(got, math.E-1, 1e-9) {
		t.Errorf("∫exp over [0,1] = %g, want e-1", got)
	}
}

func TestIntegrateToInfExponential(t *testing.T) {
	for _, lambda := range []float64{0.01, 0.1, 1, 5, 50} {
		got, err := IntegrateToInf(func(t float64) float64 { return math.Exp(-lambda * t) }, 0, 1e-12)
		if err != nil {
			t.Fatalf("lambda=%g: %v", lambda, err)
		}
		if !almostEqual(got, 1/lambda, 1e-7) {
			t.Errorf("lambda=%g: got %g, want %g", lambda, got, 1/lambda)
		}
	}
}

func TestIntegrateToInfGamma(t *testing.T) {
	// ∫_0^∞ t e^{-t} dt = 1, ∫_0^∞ t^2 e^{-t} dt = 2.
	got, err := IntegrateToInf(func(t float64) float64 { return t * math.Exp(-t) }, 0, 1e-12)
	if err != nil {
		t.Fatalf("IntegrateToInf: %v", err)
	}
	if !almostEqual(got, 1, 1e-8) {
		t.Errorf("Γ(2) integrand: got %g, want 1", got)
	}
	got, err = IntegrateToInf(func(t float64) float64 { return t * t * math.Exp(-t) }, 0, 1e-12)
	if err != nil {
		t.Fatalf("IntegrateToInf: %v", err)
	}
	if !almostEqual(got, 2, 1e-8) {
		t.Errorf("Γ(3) integrand: got %g, want 2", got)
	}
}

func TestIntegrateToInfShifted(t *testing.T) {
	// ∫_a^∞ e^{-t} dt = e^{-a}.
	for _, a := range []float64{0.5, 1, 2, 3} {
		got, err := IntegrateToInf(func(t float64) float64 { return math.Exp(-t) }, a, 1e-12)
		if err != nil {
			t.Fatalf("a=%g: %v", a, err)
		}
		if !almostEqual(got, math.Exp(-a), 1e-8) {
			t.Errorf("a=%g: got %g, want %g", a, got, math.Exp(-a))
		}
	}
}

func TestIntegrateDivergentTerminates(t *testing.T) {
	// A divergent integrand must terminate quickly with ErrMaxDepth rather
	// than hang; the returned value is unspecified.
	_, err := IntegrateToInf(math.Exp, 0, 1e-12)
	if err == nil {
		t.Error("divergent integrand reported success")
	}
}

// Property: the adaptive transform integrator matches the closed-form
// Laplace transform of a quadratic, ∫_0^∞ e^{-λt}(a + bt + t²/4) dt =
// a/λ + b/λ² + 1/(2λ³), on smooth exponentially-decaying integrands.
func TestQuadratureAgreementProperty(t *testing.T) {
	f := func(lambda, a, b float64) bool {
		lambda = 0.05 + math.Abs(math.Mod(lambda, 10))
		a = math.Abs(math.Mod(a, 3))
		b = math.Abs(math.Mod(b, 2))
		g := func(t float64) float64 { return a + b*t + 0.25*t*t }
		want := a/lambda + b/(lambda*lambda) + 0.5/(lambda*lambda*lambda)
		got, err := IntegrateToInfScale(func(t float64) float64 { return math.Exp(-lambda*t) * g(t) }, 0, 1/lambda, 1e-12)
		if err != nil {
			return false
		}
		return almostEqual(got, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIntegrateLinearityProperty(t *testing.T) {
	f := func(c1, c2 float64) bool {
		c1 = math.Mod(c1, 100)
		c2 = math.Mod(c2, 100)
		g1 := func(x float64) float64 { return math.Sin(x) }
		g2 := func(x float64) float64 { return x * x }
		lhs, err1 := Integrate(func(x float64) float64 { return c1*g1(x) + c2*g2(x) }, 0, 2, 1e-12)
		i1, err2 := Integrate(g1, 0, 2, 1e-12)
		i2, err3 := Integrate(g2, 0, 2, 1e-12)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return almostEqual(lhs, c1*i1+c2*i2, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
