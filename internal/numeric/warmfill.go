package numeric

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Warm-started water-filling. WaterFill searches the dual level λ from a
// bracket derived only from the problem's extreme marginal values, and
// inverts every coordinate's derivative from the cold guess Cap_i/2 — robust,
// but expensive when the same problem is re-solved over and over with
// slightly drifted weights, which is exactly the serving workload of
// cmd/aged. WaterFillWarm re-solves from the previous solution instead:
//
//   - the λ search brackets the previous dual level by walking ×4 outward
//     from it, usually in one or two fills, and closes that tight bracket
//     with the same Brent search on ln λ the cold solver uses: 8–10 fills
//     of Σ x_i(λ) per re-solve at 3000 items;
//   - each coordinate's inversion is the problem's closed-form Inverse
//     when it has one (cmd/aged passes Table 1's ϕ⁻¹), one call per item
//     per fill; otherwise, or when Inverse returns a non-finite value, a
//     log-space secant from the coordinate's previous allocation, which
//     is exact in one step for power-law derivatives and needs a handful
//     of evaluations otherwise, with the cold inversion behind it;
//   - the λ-independent clamp probes Deriv(Cap_i) and Deriv(tiny) are
//     computed once per solve instead of once per fill.
//
// The warm path reproduces WaterFill's clamp decisions and its slack/budget
// certification exactly; only the root-finding trajectory differs, so the
// two solvers agree on the allocation to solver tolerance (the property
// suite pins 1e-9, with and without Inverse). Any bracketing or
// convergence trouble is reported as ErrWarmStart so callers can fall back
// to the cold solver — warm starting is an optimization, never a source of
// silently different answers.

// WarmState carries the reusable part of a previous water-filling solution:
// the dual level λ (the common interior marginal value of Property 1) and
// the allocation it certified.
type WarmState struct {
	Lambda float64   // previous dual level, > 0
	X      []float64 // previous allocation, len == len(Weights)
}

// ErrWarmStart is returned when the warm solve cannot bracket or converge
// on the dual level from the supplied state; callers should re-solve cold.
var ErrWarmStart = errors.New("numeric: warm start failed to converge on the dual level")

// WaterFillWarm solves the same problem as WaterFill, warm-started from a
// previous solution, and returns the allocation together with the final
// dual level (for the next warm start). The warm state must have a positive
// finite Lambda and an allocation of matching length; anything else, or any
// convergence failure, returns ErrWarmStart (wrapping the underlying error,
// if any) and the caller should fall back to WaterFill.
func WaterFillWarm(p WaterFillProblem, warm *WarmState) ([]float64, float64, error) {
	x, _, done, err := p.start()
	if err != nil || done {
		return x, 0, err
	}
	if warm == nil || len(warm.X) != len(x) || !(warm.Lambda > 0) || math.IsInf(warm.Lambda, 0) {
		return nil, 0, ErrWarmStart
	}

	w := newWarmFiller(p, warm.X)
	var fillErr error
	fill := func(lambda float64) float64 {
		return w.fill(lambda, x, &fillErr)
	}

	// Bracket λ around the hint: fill is non-increasing in λ, so walk the
	// violated side outward geometrically. Small drifts bracket in one or
	// two probes; a hint that needs more than 60 steps is useless and the
	// caller should solve cold.
	lo, hi := warm.Lambda, warm.Lambda // fill(lo) ≥ Budget ≥ fill(hi) once bracketed
	flo := fill(lo)
	fhi := flo
	for k := 0; flo < p.Budget; k++ {
		if k >= 60 || lo == 0 {
			return nil, 0, ErrWarmStart
		}
		hi, fhi = lo, flo
		lo /= 4
		flo = fill(lo)
	}
	for k := 0; fhi > p.Budget; k++ {
		if k >= 60 || math.IsInf(hi, 1) {
			return nil, 0, ErrWarmStart
		}
		lo, flo = hi, fhi
		hi *= 4
		fhi = fill(hi)
	}
	lambda, err := p.solveDual(fill, x, lo, hi, flo, fhi, &fillErr)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrWarmStart, err)
	}
	return x, lambda, nil
}

// RecoverLambda reconstructs the dual level certified by an allocation (for
// warm-starting after a cold WaterFill, which does not report it): the
// Property-1 balance condition makes w_i·Deriv(x_i) equal across interior
// coordinates, so the median over them is a robust estimate. Allocations
// with no interior coordinate (every item clamped to 0 or its cap) carry no
// dual information and return ErrWarmStart.
func RecoverLambda(p WaterFillProblem, x []float64) (float64, error) {
	n := len(p.Weights)
	if len(x) != n || len(p.Caps) != n {
		return 0, ErrWarmStart
	}
	var vals []float64
	for i, v := range x {
		if p.Weights[i] <= 0 {
			continue
		}
		eps := 1e-9 * math.Max(1, p.Caps[i])
		if v <= eps || v >= p.Caps[i]-eps {
			continue
		}
		m := p.Weights[i] * p.derivFor(i)(v)
		if m > 0 && !math.IsInf(m, 0) && !math.IsNaN(m) {
			vals = append(vals, m)
		}
	}
	if len(vals) == 0 {
		return 0, ErrWarmStart
	}
	sort.Float64s(vals)
	return vals[len(vals)/2], nil
}

// warmFiller evaluates Σ x_i(λ) re-using per-coordinate state across fills:
// the λ-independent clamp probes are computed once, and each interior
// inversion the closed-form inverse does not settle starts from the
// coordinate's most recent allocation.
type warmFiller struct {
	p     WaterFillProblem
	dCap  []float64 // Deriv_i(Cap_i)
	dTiny []float64 // Deriv_i(tiny)
	guess []float64 // latest interior solution per coordinate
}

func newWarmFiller(p WaterFillProblem, prev []float64) *warmFiller {
	n := len(p.Weights)
	w := &warmFiller{
		p:     p,
		dCap:  make([]float64, n),
		dTiny: make([]float64, n),
		guess: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		if p.Weights[i] == 0 || p.Caps[i] == 0 {
			continue
		}
		deriv := p.derivFor(i)
		w.dCap[i] = deriv(p.Caps[i])
		w.dTiny[i] = deriv(tiny)
		g := prev[i]
		if !(g > 0) || g >= p.Caps[i] || math.IsNaN(g) {
			g = p.Caps[i] / 2 // clamped or invalid before: cold guess
		}
		w.guess[i] = g
	}
	return w
}

// fill mirrors WaterFillProblem.fillAt's clamp logic exactly; only the
// interior inversion differs (closed form or warm secant instead of cold
// bracketing).
func (w *warmFiller) fill(lambda float64, x []float64, fillErr *error) float64 {
	p := w.p
	var total float64
	for i := range x {
		wt := p.Weights[i]
		if wt == 0 || p.Caps[i] == 0 {
			x[i] = 0
			continue
		}
		target := lambda / wt
		if w.dCap[i] >= target {
			x[i] = p.Caps[i]
		} else if d0 := w.dTiny[i]; d0 <= target && !math.IsInf(d0, 1) {
			x[i] = 0
		} else {
			v, err := w.invert(i, target)
			if err != nil {
				if *fillErr == nil {
					*fillErr = err
				}
				v = 0
			}
			if v < 0 {
				v = 0
			}
			if v > p.Caps[i] {
				v = p.Caps[i]
			}
			x[i] = v
			if v > 0 && v < p.Caps[i] {
				w.guess[i] = v
			}
		}
		total += x[i]
	}
	return total
}

// invert solves Deriv_i(v) = target for an interior coordinate: by the
// closed-form inverse when there is one and it returns a finite value,
// else by the warm secant, and if the secant loses the root, by the
// unconditionally robust cold inversion before giving up on the solve.
func (w *warmFiller) invert(i int, target float64) (float64, error) {
	if w.p.Inverse != nil && w.p.DerivFor == nil {
		if v := w.p.Inverse(target); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v, nil
		}
	}
	deriv := w.p.derivFor(i)
	v, err := invertWarm(deriv, target, w.guess[i], w.p.Caps[i])
	if err != nil {
		v, err = InvertDecreasing(deriv, target, w.p.Caps[i]/2)
	}
	return v, err
}

// invertWarm solves deriv(v) = target for a strictly decreasing positive
// deriv, starting from a guess close to the root. It works on
// s(u) = ln deriv(e^u) − ln target, which a secant solves exactly in one
// step for power-law derivatives and superlinearly otherwise; the bracket
// established during expansion safeguards every step. Any NaN, failed
// bracket, or slow convergence is an error — the caller re-inverts cold.
func invertWarm(deriv func(float64) float64, target, guess, cap float64) (float64, error) {
	if !(target > 0) {
		return 0, ErrNaN
	}
	lnT := math.Log(target)
	s := func(u float64) float64 {
		d := deriv(math.Exp(u))
		if !(d > 0) {
			return math.NaN()
		}
		return math.Log(d) - lnT
	}
	u0 := math.Log(math.Min(math.Max(guess, tiny), cap))
	s0 := s(u0)
	if math.IsNaN(s0) {
		return 0, ErrNaN
	}
	if s0 == 0 {
		return math.Exp(u0), nil
	}
	// Bracket by doubling steps in the downhill direction (s decreases in
	// u, so s > 0 means the root lies above).
	h := 0.125
	if s0 < 0 {
		h = -h
	}
	u1, s1 := u0, s0
	for k := 0; ; k++ {
		if k >= 64 {
			return 0, ErrNoBracket
		}
		u := u1 + h
		su := s(u)
		if math.IsNaN(su) {
			return 0, ErrNaN
		}
		u0, s0 = u1, s1
		u1, s1 = u, su
		if su == 0 {
			return math.Exp(u), nil
		}
		if (s0 > 0) != (s1 > 0) {
			break
		}
		h *= 2
	}
	// Bracket endpoints ordered as [ulo (s>0), uhi (s<0)].
	ulo, uhi := u0, u1
	if s0 < 0 {
		ulo, uhi = u1, u0
	}
	prev := u1
	for it := 0; it < 60; it++ {
		var u float64
		if denom := s1 - s0; denom != 0 && !math.IsInf(denom, 0) {
			u = u1 - s1*(u1-u0)/denom
		} else {
			u = ulo + (uhi-ulo)/2
		}
		if (u-ulo)*(u-uhi) >= 0 { // outside the bracket
			u = ulo + (uhi-ulo)/2
		}
		if math.Abs(u-prev) <= 1e-14*math.Max(1, math.Abs(u)) {
			return math.Exp(u), nil
		}
		su := s(u)
		if math.IsNaN(su) {
			return 0, ErrNaN
		}
		if su == 0 {
			return math.Exp(u), nil
		}
		if su > 0 {
			ulo = u
		} else {
			uhi = u
		}
		u0, s0 = u1, s1
		u1, s1 = u, su
		prev = u
		if mid := ulo + (uhi-ulo)/2; mid <= ulo || mid >= uhi {
			return math.Exp(mid), nil
		}
	}
	return 0, ErrNoConverge
}
