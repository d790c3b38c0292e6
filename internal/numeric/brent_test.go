package numeric

import (
	"errors"
	"math"
	"testing"
)

// counted wraps f so a test can bound how many probes a search spent.
func counted(f func(float64) float64, n *int) func(float64) float64 {
	return func(x float64) float64 {
		*n++
		return f(x)
	}
}

func TestBrentEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return 2 - x }
	if got, err := Brent(f, 2, 5, f(2), f(5), 1e-12); err != nil || got != 2 {
		t.Errorf("root at a: got %g, %v; want 2", got, err)
	}
	if got, err := Brent(f, -1, 2, f(-1), f(2), 1e-12); err != nil || got != 2 {
		t.Errorf("root at b: got %g, %v; want 2", got, err)
	}
	if _, err := Brent(f, 3, 5, f(3), f(5), 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Errorf("same-sign endpoints: err=%v, want ErrNoBracket", err)
	}
}

func TestBrentNaN(t *testing.T) {
	f := func(x float64) float64 {
		if x > 0.1 && x < 0.9 {
			return math.NaN()
		}
		return x - 0.5
	}
	if _, err := Brent(f, 0, 1, f(0), f(1), 1e-12); !errors.Is(err, ErrNaN) {
		t.Errorf("NaN at a probe: err=%v, want ErrNaN", err)
	}
	if _, err := Brent(f, math.NaN(), 1, -0.5, 0.5, 1e-12); !errors.Is(err, ErrNaN) {
		t.Errorf("NaN endpoint: err=%v, want ErrNaN", err)
	}
	if _, err := Brent(f, 0, 1, math.NaN(), 0.5, 1e-12); !errors.Is(err, ErrNaN) {
		t.Errorf("NaN endpoint value: err=%v, want ErrNaN", err)
	}
}

// TestBrentWideLogBracket searches the whole normal float range of a dual
// level, u = ln λ ∈ [ln 1e-300, ln 1e300], for fill-like decreasing
// functions with roots anywhere in it: the answer must sit on the f ≤ 0
// side within the tolerance, superlinearly (far fewer probes than the ≈60
// a bisection to the same tolerance needs).
func TestBrentWideLogBracket(t *testing.T) {
	a, b := math.Log(1e-300), math.Log(1e300)
	for _, root := range []float64{1e-299, 1e-150, 1e-3, 1, 42, 1e150, 1e299} {
		r := math.Log(root)
		for name, f := range map[string]func(float64) float64{
			"power": func(u float64) float64 { return math.Exp(-0.5*(u-r)) - 1 },
			"sum": func(u float64) float64 {
				return math.Exp(-(u-r)/3) + 2*math.Exp(-(u-r)/7) - 3
			},
			"clamped": func(u float64) float64 { return math.Max(-1, math.Min(1, (r-u)/5)) },
		} {
			var n int
			g := counted(f, &n)
			got, err := Brent(g, a, b, f(a), f(b), 1e-15)
			if err != nil {
				t.Fatalf("%s root %g: %v", name, root, err)
			}
			if f(got) > 0 {
				t.Errorf("%s root %g: f(%g)=%g, want the f ≤ 0 side", name, root, got, f(got))
			}
			if tol := 4*0x1p-52*math.Abs(r) + 1e-15; math.Abs(got-r) > tol {
				t.Errorf("%s root %g: got ln λ=%.17g, want %.17g ± %g", name, root, got, r, tol)
			}
			if n > 40 {
				t.Errorf("%s root %g: %d probes, want ≤ 40", name, root, n)
			}
		}
	}
}

// TestBrentStepAndFlatTerminate feeds functions with no slope to
// interpolate on — a jump, a jump of denormal size, and a root of
// multiplicity 7 — which must fall back to bisection and stop within the
// iteration cap at the sign change.
func TestBrentStepAndFlatTerminate(t *testing.T) {
	a, b := math.Log(1e-300), math.Log(1e300)
	for name, tc := range map[string]struct {
		f    func(float64) float64
		root float64
	}{
		"step": {func(u float64) float64 {
			if u < 0.3 {
				return 1
			}
			return -1
		}, 0.3},
		"denormal step": {func(u float64) float64 { return math.Copysign(5e-324, -5-u) }, -5},
		"flat root":     {func(u float64) float64 { return -math.Pow(u-1, 7) }, 1},
	} {
		var n int
		got, err := Brent(counted(tc.f, &n), a, b, tc.f(a), tc.f(b), 1e-15)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n > brentMaxIter {
			t.Errorf("%s: %d probes, over the cap %d", name, n, brentMaxIter)
		}
		if tc.f(got) > 0 || math.Abs(got-tc.root) > 1e-12 {
			t.Errorf("%s: got %.17g (f=%g), want the f ≤ 0 side of %g", name, got, tc.f(got), tc.root)
		}
	}
}
