package numeric

import (
	"fmt"
	"math"
)

// Adaptive Dormand–Prince 5(4) integration. The embedded 4th-order
// solution provides a per-step error estimate; steps are accepted when
// the weighted RMS error is ≤ 1 and the step size is rescaled by the
// standard controller h ← h·min(5, max(0.2, 0.9·err^{-1/5})). The last
// stage of an accepted step equals the first stage of the next (FSAL),
// so an accepted step costs six derivative evaluations.

// Derivs computes dx/dt into dst given the current time and state. dst and
// x always have the same length and dst is zeroed by the caller.
type Derivs func(t float64, x, dst []float64)

// RKOpts parameterizes the adaptive integrator. The zero value selects
// the defaults noted on each field.
type RKOpts struct {
	RTol float64 // relative tolerance (default 1e-6)
	ATol float64 // absolute tolerance (default 1e-9)
	// InitStep seeds the step-size controller; ≤ 0 derives a guess from
	// the initial state and derivative norms.
	InitStep float64
	// MaxStep caps the step size; ≤ 0 means no cap beyond the remaining
	// integration span.
	MaxStep float64
	// MaxSteps bounds accepted+rejected steps per AdvanceTo call
	// (default 5e6) so a pathological system errors out instead of
	// spinning.
	MaxSteps int
	// Clamp, when non-nil, is applied to the state after every accepted
	// step (e.g. a positivity floor) and reports whether it moved the
	// state. Only a step it moved pays a fresh first-stage derivative;
	// otherwise the FSAL derivative is reused as on an unclamped step.
	Clamp func(x []float64) bool
}

// RKStats reports the work an integration performed.
type RKStats struct {
	Steps    int     // accepted steps
	Rejected int     // rejected attempts
	Evals    int     // derivative evaluations
	LastStep float64 // step size after the final accepted step
}

// Dormand–Prince coefficients.
var (
	dpC = [7]float64{0, 1. / 5, 3. / 10, 4. / 5, 8. / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1. / 5},
		{3. / 40, 9. / 40},
		{44. / 45, -56. / 15, 32. / 9},
		{19372. / 6561, -25360. / 2187, 64448. / 6561, -212. / 729},
		{9017. / 3168, -355. / 33, 46732. / 5247, 49. / 176, -5103. / 18656},
		{35. / 384, 0, 500. / 1113, 125. / 192, -2187. / 6784, 11. / 84},
	}
	// dpE = b5 − b4: dotted with the stages it yields the error estimate.
	dpE = [7]float64{
		35./384 - 5179./57600,
		0,
		500./1113 - 7571./16695,
		125./192 - 393./640,
		-2187./6784 + 92097./339200,
		11./84 - 187./2100,
		-1. / 40,
	}
)

// Stepper carries the adaptive integration state across calls, so an
// event loop can interleave integration with discrete events without
// re-priming the step-size controller each time.
type Stepper struct {
	f     Derivs
	o     RKOpts
	t     float64
	x     []float64
	h     float64
	k     [7][]float64
	ytmp  []float64
	ynew  []float64
	stats RKStats
	fsal  bool // k[6] of the last accepted step is valid as k[0]
}

// NewStepper builds a stepper at (t0, x0). x0 is copied.
func NewStepper(f Derivs, x0 []float64, t0 float64, o RKOpts) *Stepper {
	if o.RTol <= 0 {
		o.RTol = 1e-6
	}
	if o.ATol <= 0 {
		o.ATol = 1e-9
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 5_000_000
	}
	s := &Stepper{f: f, o: o, t: t0, x: append([]float64(nil), x0...)}
	d := len(x0)
	for i := range s.k {
		s.k[i] = make([]float64, d)
	}
	s.ytmp = make([]float64, d)
	s.ynew = make([]float64, d)
	return s
}

// Time returns the current integration time.
func (s *Stepper) Time() float64 { return s.t }

// State returns the live state slice; callers must not modify it.
func (s *Stepper) State() []float64 { return s.x }

// Stats returns cumulative work counters.
func (s *Stepper) Stats() RKStats { return s.stats }

// Invalidate drops the cached first-stage derivative, so the next step
// evaluates it afresh. Call it after changing anything the derivative
// function reads other than the state.
func (s *Stepper) Invalidate() { s.fsal = false }

// initStep picks the first step size: the configured seed, or a
// conservative guess from the state/derivative norms.
func (s *Stepper) initStep(span float64) float64 {
	if s.o.InitStep > 0 {
		return s.o.InitStep
	}
	s.f(s.t, s.x, s.k[0])
	s.stats.Evals++
	s.fsal = true
	var dx, dd float64
	for i := range s.x {
		if v := math.Abs(s.x[i]); v > dx {
			dx = v
		}
		if v := math.Abs(s.k[0][i]); v > dd {
			dd = v
		}
	}
	h := span / 100
	if dd > 0 {
		if g := 0.01 * (dx + s.o.ATol) / dd; g > 0 && g < h {
			h = g
		}
	}
	if h <= 0 {
		h = 1e-6
	}
	return h
}

// AdvanceTo integrates the state forward to target, taking as many
// adaptive steps as needed. Advancing to a past or equal time is a
// no-op.
func (s *Stepper) AdvanceTo(target float64) error {
	if target <= s.t {
		return nil
	}
	if s.h <= 0 {
		s.h = s.initStep(target - s.t)
	}
	steps := 0
	for s.t < target {
		if steps++; steps > s.o.MaxSteps {
			return fmt.Errorf("numeric: RK45 exceeded %d steps at t=%g", s.o.MaxSteps, s.t)
		}
		h := s.h
		if s.o.MaxStep > 0 && h > s.o.MaxStep {
			h = s.o.MaxStep
		}
		last := false
		if s.t+h >= target {
			h = target - s.t
			last = true
		}
		err, ok := s.attempt(h)
		if !ok {
			return fmt.Errorf("numeric: RK45 produced a non-finite state at t=%g (step %g)", s.t, h)
		}
		// Step-size controller; the rescale applies whether or not the
		// step was accepted.
		fac := 5.0
		if err > 0 {
			fac = 0.9 * math.Pow(err, -0.2)
			if fac > 5 {
				fac = 5
			} else if fac < 0.2 {
				fac = 0.2
			}
		}
		if err <= 1 { // accept
			s.t += h
			copy(s.x, s.ynew)
			// FSAL: the last stage is the derivative at the new state.
			s.k[0], s.k[6] = s.k[6], s.k[0]
			s.fsal = s.o.Clamp == nil || !s.o.Clamp(s.x)
			s.stats.Steps++
			if !last {
				s.h = h * fac
			} else if s.h < h {
				s.h = h
			}
			s.stats.LastStep = s.h
		} else {
			s.stats.Rejected++
			s.h = h * fac
		}
	}
	return nil
}

// attempt takes one trial step of size h from (s.t, s.x) into s.ynew and
// returns the weighted RMS error estimate. ok is false when the step
// produced non-finite values.
func (s *Stepper) attempt(h float64) (errNorm float64, ok bool) {
	if !s.fsal {
		s.f(s.t, s.x, s.k[0])
		s.stats.Evals++
		s.fsal = true
	}
	for stage := 1; stage < 7; stage++ {
		a := dpA[stage]
		for i := range s.ytmp {
			sum := 0.0
			for j := 0; j < stage; j++ {
				if a[j] != 0 {
					sum += a[j] * s.k[j][i]
				}
			}
			s.ytmp[i] = s.x[i] + h*sum
		}
		s.f(s.t+dpC[stage]*h, s.ytmp, s.k[stage])
		s.stats.Evals++
	}
	// Stage 7 used the 5th-order weights, so ytmp is the new state and
	// k[6] is its derivative (FSAL).
	copy(s.ynew, s.ytmp)
	var sum float64
	for i := range s.ynew {
		if math.IsNaN(s.ynew[i]) || math.IsInf(s.ynew[i], 0) {
			return 0, false
		}
		e := 0.0
		for j := 0; j < 7; j++ {
			if dpE[j] != 0 {
				e += dpE[j] * s.k[j][i]
			}
		}
		e *= h
		sc := s.o.ATol + s.o.RTol*math.Max(math.Abs(s.x[i]), math.Abs(s.ynew[i]))
		w := e / sc
		sum += w * w
	}
	errNorm = math.Sqrt(sum / float64(len(s.ynew)))
	if math.IsNaN(errNorm) {
		return 0, false
	}
	return errNorm, true
}

// RK45 integrates dx/dt = f(t, x) from t0 to t1 with the adaptive
// Dormand–Prince 5(4) pair, returning the final state (a fresh slice;
// x0 is not modified) and the work statistics.
func RK45(f Derivs, x0 []float64, t0, t1 float64, o RKOpts) ([]float64, RKStats, error) {
	s := NewStepper(f, x0, t0, o)
	if err := s.AdvanceTo(t1); err != nil {
		return nil, s.stats, err
	}
	return append([]float64(nil), s.x...), s.stats, nil
}
