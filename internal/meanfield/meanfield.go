// Package meanfield integrates the replica-dynamics ODE of Section 5.2
// (Eq. 7), the fluid limit of Query Counting Replication:
//
//	dx_i/dt = d_i·ψ(S/x_i) − x_i/(ρS) · Σ_j d_j·ψ(S/x_j)
//
// Creation (each fulfilled request for item i spawns ψ(counter) replicas,
// with E[counter] = S/x_i) balances deletion (random cache replacement
// erases item i proportionally to its share of the global cache). Its
// stable fixed point satisfies the balance condition of Property 1 when ψ
// is the Property-2 reaction function — this package exists to verify
// that claim numerically and to support the convergence ablation.
package meanfield

import (
	"errors"
	"fmt"
	"math"

	"impatience/internal/demand"
	"impatience/internal/numeric"
	"impatience/internal/utility"
)

// ErrSystem wraps every validation error of this package, in the style
// of rates.ErrModel: errors.Is(err, meanfield.ErrSystem) identifies a
// construction-time rejection.
var ErrSystem = errors.New("meanfield: invalid system")

// System describes the fluid-limit dynamics.
type System struct {
	Utility utility.Function
	Pop     demand.Popularity
	Mu      float64 // contact rate used to tune ψ
	Servers int     // |S|
	Rho     int     // per-server cache slots
	// PsiScale multiplies the reaction function; it rescales time but not
	// the fixed point. 1 by default.
	PsiScale float64
}

// Validate reports structural errors, including non-finite or negative
// rates and demand — inputs the ODE would otherwise silently integrate
// into NaN trajectories.
func (s System) Validate() error {
	switch {
	case s.Utility == nil:
		return fmt.Errorf("%w: nil utility", ErrSystem)
	case s.Mu <= 0 || math.IsNaN(s.Mu) || math.IsInf(s.Mu, 0):
		return fmt.Errorf("%w: µ=%g", ErrSystem, s.Mu)
	case s.Servers <= 0 || s.Rho <= 0:
		return fmt.Errorf("%w: servers=%d rho=%d", ErrSystem, s.Servers, s.Rho)
	case s.Pop.Items() == 0:
		return fmt.Errorf("%w: empty catalog", ErrSystem)
	case math.IsNaN(s.PsiScale) || math.IsInf(s.PsiScale, 0) || s.PsiScale < 0:
		return fmt.Errorf("%w: psi scale %g", ErrSystem, s.PsiScale)
	}
	if err := s.Pop.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrSystem, err)
	}
	return nil
}

// validateState rejects a state vector whose length or entries the
// dynamics cannot accept.
func (s System) validateState(x0 []float64) error {
	if len(x0) != s.Pop.Items() {
		return fmt.Errorf("%w: state has %d items, demand %d", ErrSystem, len(x0), s.Pop.Items())
	}
	for i, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%w: x0[%d]=%g", ErrSystem, i, v)
		}
	}
	return nil
}

func (s System) psiScale() float64 {
	if s.PsiScale > 0 {
		return s.PsiScale
	}
	return 1
}

// Derivs evaluates the right-hand side of Eq. 7. Replica counts are
// clamped below at a small floor (the sticky replica of the simulator)
// to keep ψ(S/x) finite.
func (s System) Derivs(_ float64, x, dst []float64) {
	S := float64(s.Servers)
	cap := float64(s.Servers * s.Rho)
	scale := s.psiScale()
	var churn float64 // Σ_j d_j ψ(S/x_j)
	creation := make([]float64, len(x))
	for j, d := range s.Pop.Rates {
		xj := math.Max(x[j], minReplicas)
		c := d * scale * utility.Psi(s.Utility, s.Mu, S, S/xj)
		creation[j] = c
		churn += c
	}
	for i := range x {
		xi := math.Max(x[i], minReplicas)
		dst[i] = creation[i] - xi/cap*churn
	}
}

// minReplicas is the sticky-replica floor of the fluid model.
const minReplicas = 1e-3

// solverOpts are the adaptive-integration tolerances of this package:
// tight enough that the solver, not the tolerance, limits fidelity at
// the sticky-replica floor, loose enough that steady-state tails take
// large steps. step seeds the controller (callers' historical fixed
// step is a good starting guess); the controller grows or shrinks it
// from there.
func solverOpts(step float64, clamp bool) numeric.RKOpts {
	o := numeric.RKOpts{RTol: 1e-7, ATol: 1e-9 * minReplicas, InitStep: step}
	if clamp {
		o.Clamp = clampFloor
	}
	return o
}

// clampFloor applies the sticky-replica floor: the fluid limit keeps
// x_i > 0 exactly, but a finite step can overshoot, and a negative
// replica count is meaningless (and poisons downstream welfare
// evaluation). It reports whether any entry moved.
func clampFloor(x []float64) bool {
	moved := false
	for i := range x {
		if x[i] < minReplicas {
			x[i] = minReplicas
			moved = true
		}
	}
	return moved
}

// Run integrates the dynamics from x0 for horizon time units with the
// adaptive Dormand–Prince solver, returning the final state. step seeds
// the step-size controller (0 picks automatically); the historical
// fixed-step signature is kept so call sites read unchanged. The state
// is clamped to the sticky-replica floor after every accepted step.
func (s System) Run(x0 []float64, horizon, step float64) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.validateState(x0); err != nil {
		return nil, err
	}
	if step <= 0 || step > horizon {
		step = 0
	}
	x, _, err := numeric.RK45(s.Derivs, x0, 0, horizon, solverOpts(step, true))
	return x, err
}

// RunToSteadyState integrates adaptively until the relative derivative
// norm falls below tol or the horizon is exhausted; it returns the state
// and whether convergence was reached. The adaptive controller makes the
// long convergence tail cheap: as the dynamics flatten the accepted step
// grows, where the former fixed-step integrator paid the same cost per
// unit time throughout.
func (s System) RunToSteadyState(x0 []float64, horizon, step, tol float64) ([]float64, bool, error) {
	if err := s.Validate(); err != nil {
		return nil, false, err
	}
	if err := s.validateState(x0); err != nil {
		return nil, false, err
	}
	stepper := numeric.NewStepper(s.Derivs, x0, 0, solverOpts(step, false))
	dst := make([]float64, len(x0))
	// Check the convergence criterion on a geometric grid of sync points:
	// between checks the stepper advances freely, so the check cost stays
	// logarithmic in the horizon instead of per-step.
	checkAt := math.Max(step, horizon/1e5)
	if checkAt <= 0 {
		checkAt = horizon / 1e5
	}
	for t := checkAt; ; t *= 1.5 {
		if t > horizon {
			t = horizon
		}
		if err := stepper.AdvanceTo(t); err != nil {
			return nil, false, err
		}
		x := stepper.State()
		s.Derivs(t, x, dst)
		var dn, xn float64
		for i := range dst {
			dn += dst[i] * dst[i]
			xn += x[i] * x[i]
		}
		if dn <= tol*tol*math.Max(xn, 1) {
			return append([]float64(nil), x...), true, nil
		}
		if t >= horizon {
			return append([]float64(nil), x...), false, nil
		}
	}
}

// UniformStart returns the natural initial condition: the global cache
// split evenly across the catalog.
func (s System) UniformStart() []float64 {
	x := make([]float64, s.Pop.Items())
	per := float64(s.Servers*s.Rho) / float64(len(x))
	for i := range x {
		x[i] = per
	}
	return x
}
