package numeric

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when a root finder is given an interval whose
// endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("numeric: endpoints do not bracket a root")

// ErrNoConverge is returned when an iterative solver exhausts its iteration
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

// ErrNaN is returned when the function under study evaluates to NaN (or
// the bracket itself is NaN) at a probe point, so the sign logic that
// bisection relies on is meaningless. Returning the last iterate there
// would silently hand a garbage root to the allocation solvers.
var ErrNaN = errors.New("numeric: function evaluated to NaN at a probe point")

// Bisect finds x in [a, b] with f(x) = 0 by bisection, assuming f is
// continuous and f(a), f(b) have opposite signs (one may be zero). The
// result is accurate to xtol in the argument. Bisection is slow but
// unconditionally robust, which is what the allocation solvers need: the
// functions they invert (ϕ transforms) can be extremely flat.
func Bisect(f func(float64) float64, a, b, xtol float64) (float64, error) {
	if xtol <= 0 {
		xtol = 1e-12
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return 0, ErrNaN
	}
	fa, fb := f(a), f(b)
	if math.IsNaN(fa) || math.IsNaN(fb) {
		return 0, ErrNaN
	}
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		m := a + (b-a)/2
		if b-a <= xtol || m == a || m == b {
			return m, nil
		}
		fm := f(m)
		if math.IsNaN(fm) {
			return 0, ErrNaN
		}
		if fm == 0 {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return a + (b-a)/2, ErrNoConverge
}

// InvertDecreasing solves f(x) = target for a continuous strictly
// decreasing f on (0, ∞). It brackets the root by geometric expansion from
// x0 (any positive starting guess) and then bisects. If target is above
// f(lo) for lo → 0 or below f(hi) for hi → ∞ beyond the expansion limits,
// the nearest bracket endpoint is returned with ErrNoBracket.
func InvertDecreasing(f func(float64) float64, target, x0 float64) (float64, error) {
	if x0 <= 0 {
		x0 = 1
	}
	if math.IsNaN(target) {
		return 0, ErrNaN
	}
	lo, hi := x0, x0
	flo, fhi := f(lo), f(hi)
	// Expand lo downward until f(lo) >= target. A NaN evaluation must be
	// caught explicitly: every comparison against NaN is false, so it would
	// otherwise pass as a satisfied bracket condition.
	for i := 0; flo < target; i++ {
		if i >= 600 {
			return lo, ErrNoBracket
		}
		lo /= 2
		flo = f(lo)
	}
	if math.IsNaN(flo) {
		return 0, ErrNaN
	}
	// Expand hi upward until f(hi) <= target.
	for i := 0; fhi > target; i++ {
		if i >= 600 {
			return hi, ErrNoBracket
		}
		hi *= 2
		fhi = f(hi)
	}
	if math.IsNaN(fhi) {
		return 0, ErrNaN
	}
	if lo == hi {
		return lo, nil
	}
	// Bisect in log space: the bracket can span hundreds of orders of
	// magnitude (ϕ transforms are power-like), and a root near zero needs
	// relative, not absolute, precision.
	u, err := Bisect(func(u float64) float64 { return f(math.Exp(u)) - target }, math.Log(lo), math.Log(hi), 1e-13)
	return math.Exp(u), err
}

// brentMaxIter caps Brent's probes; its bisection safeguard closes even a
// step over ln(1e-300)…ln(1e300) far inside it.
const brentMaxIter = 200

// Brent finds a sign change of a continuous f in [a, b] by the
// Brent–Dekker method: inverse quadratic or secant steps while they shrink
// the bracket fast enough, bisection otherwise, so it is superlinear on
// smooth f and degrades to bisection on step-like or flat f. fa and fb
// are f(a) and f(b), which callers have usually paid for while bracketing;
// they must not share a sign. The search stops once the bracket is within
// xtol plus two ulps and returns its end at which f ≤ 0, for callers that
// need a one-sided answer. A NaN probe is ErrNaN; exhausting brentMaxIter
// is ErrNoConverge.
func Brent(f func(float64) float64, a, b, fa, fb, xtol float64) (float64, error) {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(fa) || math.IsNaN(fb) {
		return 0, ErrNaN
	}
	if (fa > 0 && fb > 0) || (fa < 0 && fb < 0) {
		return 0, ErrNoBracket
	}
	// [b, c] is the bracket with |f(b)| ≤ |f(c)|; a is the previous b.
	c, fc := a, fa
	d := b - a
	e := d
	for i := 0; i < brentMaxIter; i++ {
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d = b - a
			e = d
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol := 0x1p-51*math.Abs(b) + xtol/2
		m := (c - b) / 2
		if math.Abs(m) <= tol || fb == 0 {
			if fb <= 0 {
				return b, nil
			}
			return c, nil
		}
		if math.Abs(e) >= tol && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c { // secant
				p, q = 2*m*s, 1-s
			} else { // inverse quadratic
				r := fb / fc
				q = fa / fc
				p = s * (2*m*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			} else {
				p = -p
			}
			if 2*p < math.Min(3*m*q-math.Abs(tol*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = m, m
			}
		} else {
			d, e = m, m
		}
		a, fa = b, fb
		if math.Abs(d) > tol {
			b += d
		} else {
			b += math.Copysign(tol, m)
		}
		if fb = f(b); math.IsNaN(fb) {
			return 0, ErrNaN
		}
	}
	return 0, ErrNoConverge
}
