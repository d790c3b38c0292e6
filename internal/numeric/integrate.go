// Package numeric provides the numerical substrate used throughout the
// impatience library: quadrature on finite and semi-infinite intervals,
// root finding, a water-filling solver for separable concave resource
// allocation, and an adaptive Runge–Kutta (Dormand–Prince) ODE integrator.
//
// Everything here is deterministic and allocation-light; the routines are
// tuned for the integrands that arise from delay-utility transforms
// (smooth, decaying exponentials times slowly varying factors), not as a
// general scientific library.
package numeric

import (
	"errors"
	"math"
)

// DefaultTol is the default absolute tolerance used by the adaptive
// quadrature routines when the caller passes tol <= 0.
const DefaultTol = 1e-10

// maxDepth bounds the recursion of adaptive Simpson integration and
// maxEvals bounds the total number of integrand evaluations per call, so
// that pathological integrands (divergent, wildly oscillatory) terminate
// in bounded time with ErrMaxDepth instead of hanging.
const (
	maxDepth = 50
	maxEvals = 2_000_000
)

// ErrMaxDepth is reported (wrapped) when adaptive refinement hits its
// recursion limit before reaching the requested tolerance.
var ErrMaxDepth = errors.New("numeric: adaptive integration reached maximum depth")

// simpson returns the Simpson's-rule estimate of the integral of f on
// [a, b] given precomputed endpoint and midpoint values.
func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

// adaptiveSimpson recursively refines the Simpson estimate until the
// standard error bound |S_left + S_right - S_whole| <= 15 tol holds.
// evals tracks the shared evaluation budget across the whole call tree.
func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int, evals *int) (float64, error) {
	m := (a + b) / 2
	lm := (a + m) / 2
	rm := (m + b) / 2
	flm := f(lm)
	frm := f(rm)
	*evals += 2
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	delta := left + right - whole
	if math.Abs(delta) <= 15*tol || depth >= maxDepth || *evals >= maxEvals {
		var err error
		if math.Abs(delta) > 15*tol {
			err = ErrMaxDepth
		}
		return left + right + delta/15, err
	}
	l, errL := adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, depth+1, evals)
	r, errR := adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, depth+1, evals)
	if errL != nil {
		return l + r, errL
	}
	return l + r, errR
}

// Integrate computes ∫_a^b f(t) dt with adaptive Simpson quadrature to
// absolute tolerance tol (DefaultTol if tol <= 0). The endpoints may be
// given in either order; the usual sign convention applies.
func Integrate(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	if a == b {
		return 0, nil
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	fa, fb := f(a), f(b)
	m := (a + b) / 2
	fm := f(m)
	whole := simpson(a, b, fa, fm, fb)
	evals := 0
	v, err := adaptiveSimpson(f, a, b, fa, fm, fb, whole, tol, 0, &evals)
	return sign * v, err
}

// IntegrateToInf computes ∫_a^∞ f(t) dt for an integrand that decays to
// zero, assuming its characteristic decay scale is of order 1. It is
// IntegrateToInfScale with scale 1.
func IntegrateToInf(f func(float64) float64, a, tol float64) (float64, error) {
	return IntegrateToInfScale(f, a, 1, tol)
}

// IntegrateToInfScale computes ∫_a^∞ f(t) dt for an integrand that decays
// to zero over a characteristic scale (e.g. 1/λ for e^{-λt} factors). It
// maps [a, ∞) onto (0, 1] with t = a + scale·u/(1-u) and integrates the
// transformed integrand adaptively. Supplying the right scale keeps the
// quadrature nodes where the integrand mass actually is; a wrong scale
// degrades accuracy gracefully (more subdivision) rather than failing.
func IntegrateToInfScale(f func(float64) float64, a, scale, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	if scale <= 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		scale = 1
	}
	g := func(u float64) float64 {
		if u >= 1 {
			return 0
		}
		den := 1 - u
		t := a + scale*u/den
		v := f(t) * scale / (den * den)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	return Integrate(g, 0, 1, tol)
}

// IntegrateSingular computes ∫_0^∞ w(t) dt for an integrand with a
// possible integrable singularity at t = 0 (e.g. the power-family
// densities t^{-α}) and decay over a characteristic scale at infinity
// (e.g. 1/λ for an e^{-λt} factor). The head [0, scale] is integrated
// under the substitution t = scale·u⁴, which flattens singularities up to
// t^{-0.97}; the tail uses the scaled rational transform of
// IntegrateToInfScale. Non-finite integrand values (possible exactly at
// the singular endpoint) are treated as 0, which does not affect the
// value of an integrable singularity.
func IntegrateSingular(w func(float64) float64, scale, tol float64) (float64, error) {
	if scale <= 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		scale = 1
	}
	guard := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	head, errH := Integrate(func(u float64) float64 {
		t := scale * u * u * u * u
		return guard(w(t) * scale * 4 * u * u * u)
	}, 0, 1, tol)
	tail, errT := IntegrateToInfScale(func(t float64) float64 { return guard(w(t)) }, scale, scale, tol)
	if errH != nil {
		return head + tail, errH
	}
	return head + tail, errT
}
